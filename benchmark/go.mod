module gnf/benchmark

go 1.24

require gnf v0.0.0

replace gnf => ../
