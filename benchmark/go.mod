module fxpar/benchmark

go 1.22

require fxpar v0.0.0

replace fxpar => ../
