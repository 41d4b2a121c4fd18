package main

import (
	"runtime"
	"syscall"
	"time"
)

// sleepUntil blocks until t. The Go runtime parks timed sleeps in its
// network poller with millisecond resolution, which would make the open
// phase's generator run up to 1 ms late; nanosleep on a locked thread
// wakes within the kernel's timer slack.
func sleepUntil(t time.Time) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) re-checks the clock
	}
}
