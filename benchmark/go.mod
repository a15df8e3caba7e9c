module gridsat/benchmark

go 1.24

require gridsat v0.0.0

replace gridsat => ../
