//go:build !race

package rdma

const raceEnabled = false
