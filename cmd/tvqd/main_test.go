package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// start runs the daemon on args in the background. It returns the
// addresses the daemon reports once listening, a stop that signals it
// and returns its exit status, and fails the test if it exits first.
func start(t *testing.T, args ...string) (api, debug net.Addr, stop func() int) {
	t.Helper()
	sig := make(chan os.Signal, 1)
	type addrs struct{ api, debug net.Addr }
	ready := make(chan addrs, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- tvqd(args, sig, func(api, debug net.Addr) { ready <- addrs{api, debug} })
	}()
	select {
	case a := <-ready:
		return a.api, a.debug, func() int {
			sig <- syscall.SIGTERM
			return <-exit
		}
	case code := <-exit:
		t.Fatalf("tvqd %v exited with %d before listening", args, code)
	case <-time.After(10 * time.Second):
		t.Fatalf("tvqd %v did not start listening", args)
	}
	return nil, nil, nil
}

func get(t *testing.T, addr net.Addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr.String() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestDebugListenerOffByDefault: without -debug-addr the daemon opens
// no debug listener, and the API listener serves no profiles.
func TestDebugListenerOffByDefault(t *testing.T) {
	api, debug, stop := start(t, "-addr", "127.0.0.1:0")
	if debug != nil {
		t.Errorf("a debug listener opened on %v without -debug-addr", debug)
	}
	if code, _ := get(t, api, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("the API listener answers /debug/pprof/ with %d, want 404", code)
	}
	if code := stop(); code != 0 {
		t.Errorf("exit status %d, want 0", code)
	}
}

// TestDebugListenerServesProfiles: -debug-addr serves the pprof index
// and the runtime metrics on its own listener, and only there.
func TestDebugListenerServesProfiles(t *testing.T) {
	api, debug, stop := start(t, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	if debug == nil {
		t.Fatal("no debug listener with -debug-addr")
	}
	if code, body := get(t, debug, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, %.80q; want 200 and the profile index", code, body)
	}
	if code, body := get(t, debug, "/debug/metrics"); code != http.StatusOK || !strings.Contains(body, "/gc/heap/allocs:bytes ") {
		t.Errorf("/debug/metrics = %d, %.80q; want 200 and runtime metrics", code, body)
	}
	if code, _ := get(t, api, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("the API listener answers /debug/pprof/ with %d, want 404", code)
	}
	if code := stop(); code != 0 {
		t.Errorf("exit status %d, want 0", code)
	}
}

// TestDebugListenerBadAddress: a debug address that cannot be listened
// on stops the daemon with a non-zero status before it serves.
func TestDebugListenerBadAddress(t *testing.T) {
	listened := false
	code := tvqd([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:99999"},
		make(chan os.Signal), func(net.Addr, net.Addr) { listened = true })
	if code == 0 || listened {
		t.Errorf("bad -debug-addr: exit status %d, listened %v; want non-zero before listening", code, listened)
	}
}
