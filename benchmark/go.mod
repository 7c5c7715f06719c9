module textjoin/benchmark

go 1.22

require textjoin v0.0.0

replace textjoin => ../
