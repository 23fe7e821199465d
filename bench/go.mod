module partialreduce/bench

go 1.24

require partialreduce v0.0.0

replace partialreduce => ../
