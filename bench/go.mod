module gage/bench

go 1.22

require gage v0.0.0

replace gage => ../
