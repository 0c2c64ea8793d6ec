module recache/benchmark

go 1.24

require recache v0.0.0

replace recache => ../
