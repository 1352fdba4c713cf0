package telemetry

import (
	"os"
	"os/signal"
	"syscall"
)

// OnInterrupt arms a SIGINT/SIGTERM handler that runs fn once and exits
// with the conventional interrupted status (130), until the returned disarm
// func is called; disarm returns once the handler's goroutine has exited.
// bench.StartLive arms one per command to print sweep progress and a final
// metrics snapshot when a long run is cut short. A second signal while fn
// runs kills the process immediately (signal.Stop restores the default
// disposition before fn starts).
func OnInterrupt(fn func()) (disarm func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	disarmed, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ch:
			signal.Stop(ch)
			fn()
			os.Exit(130)
		case <-disarmed:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(disarmed)
		<-exited
	}
}
