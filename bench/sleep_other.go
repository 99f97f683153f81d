//go:build !linux

package main

import "time"

// pacer falls back to the runtime's timers where there is no timerfd;
// expect loadgen.late_share to say so.
type pacer struct{}

func newPacer() (*pacer, error)         { return &pacer{}, nil }
func (p *pacer) sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
func (p *pacer) close()                 {}
