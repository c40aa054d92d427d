module pperf/bench

go 1.22

require pperf v0.0.0

replace pperf => ../
