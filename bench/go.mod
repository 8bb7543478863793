module healthcloud/bench

go 1.22

require healthcloud v0.0.0

replace healthcloud => ../
