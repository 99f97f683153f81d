package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer is an open-loop sender's alarm clock: a timerfd read through the
// runtime's poller. time.Sleep will not do: in a mostly idle process its
// wake-up comes from an epoll timeout with millisecond granularity
// (measured here: a 300 us sleep returned 830 us late), and a send counts
// as late from 1 ms. A nanosleep call is precise but pins the sender's P
// in a syscall, which starves the servers sharing this process of the two
// cores; a parked read on a timerfd is both precise (50 us late at the
// median) and gives the P up.
type pacer struct {
	fd uintptr // kept beside f: File.Fd would switch the descriptor to blocking mode
	f  *os.File
}

func newPacer() (*pacer, error) {
	const clockMonotonic, nonblockCloexec = 1, 0x800 | 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblockCloexec, 0)
	if errno != 0 {
		return nil, errno
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil parks the goroutine until t.
func (p *pacer) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	// struct itimerspec{it_interval, it_value timespec}: one shot after d.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := p.f.Read(expirations[:]); err != nil {
		time.Sleep(time.Until(t))
	}
}

func (p *pacer) close() { p.f.Close() }
