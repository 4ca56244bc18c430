package main

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time the process has used, user and system, across
// all its threads. Time the hypervisor steals from the machine is not
// charged to it, so work per CPU second is steadier than work per wall
// second on a shared host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
