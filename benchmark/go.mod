module motifstream/benchmark

go 1.22

require motifstream v0.0.0

replace motifstream => ../
