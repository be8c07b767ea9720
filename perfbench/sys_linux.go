package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil sleeps the calling goroutine until t on its own thread,
// with nanosleep and the thread's timer slack lowered to 1ns, so it wakes
// within tens of microseconds. The runtime's own timers wake on the
// netpoller's millisecond granularity, which on this kind of host
// overshoots a 500µs sleep by about as much again. The sleep does not
// spin, but the syscall holds a Go processor while it lasts.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: the default slack only widens the lag the run reports
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
