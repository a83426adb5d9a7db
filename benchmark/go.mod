module adaptbf/benchmark

go 1.24

require adaptbf v0.0.0

replace adaptbf => ../
