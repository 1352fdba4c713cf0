package telemetry

import (
	"os"
	"os/signal"
	"sync"
	"syscall"
)

var interruptOnce sync.Once

// OnInterrupt installs a SIGINT/SIGTERM handler that runs fn once and exits
// with the conventional interrupted status (130). bench.StartLive uses it to
// print sweep progress and a final metrics snapshot when a long run is cut
// short. The first registration wins; a second signal while fn
// runs kills the process immediately (signal.Stop restores the default
// disposition before fn starts).
func OnInterrupt(fn func()) {
	interruptOnce.Do(func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-ch
			signal.Stop(ch)
			fn()
			os.Exit(130)
		}()
	})
}
