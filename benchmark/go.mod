module tvq/benchmark

go 1.23

require tvq v0.0.0

replace tvq => ../
