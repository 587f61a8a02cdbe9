module sfccube/bench

go 1.22

require sfccube v0.0.0

replace sfccube => ../
