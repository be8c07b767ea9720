//go:build !linux

package main

import (
	"runtime"
	"time"
)

// sleepUntil falls back to the runtime timer where nanosleep and
// per-thread timer slack are unavailable; the timer lag the run reports
// shows the difference.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// peakRSSMB approximates the peak resident set by the memory the Go
// runtime has obtained from the system.
func peakRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
