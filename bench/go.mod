module crayfish/bench

go 1.22

require crayfish v0.0.0

replace crayfish => ../
