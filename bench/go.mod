module github.com/portus-sys/portus/bench

go 1.22

require github.com/portus-sys/portus v0.0.0

replace github.com/portus-sys/portus => ../
