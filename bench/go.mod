module megh/bench

go 1.22

require megh v0.0.0

replace megh => ../
