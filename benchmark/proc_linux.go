package main

import "syscall"

// childAttr makes the kernel kill the daemon if the benchmark dies
// without stopping it.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
