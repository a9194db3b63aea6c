module vadasa/benchmark

go 1.22

require vadasa v0.0.0

replace vadasa => ../
