// Command zkflow-worker is an off-path proving node (paper §7,
// "off-path computation"): a prover-farm worker that dials the zkflowd
// coordinator, registers its capacity, and proves dispatched jobs —
// whole aggregations, queries or individual zkVM segments — moving
// all heavy cryptographic work off the collection path. It reconnects
// with backoff whenever the coordinator restarts or the link drops:
//
//	zkflowd -farm-addr 127.0.0.1:8491 -workers 4
//	zkflow-worker -farm-addr 127.0.0.1:8491 -capacity 2 -name rack1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zkflow/internal/remote"
)

func main() {
	var (
		farmAddr = flag.String("farm-addr", "", "farm coordinator address to dial (required)")
		capacity = flag.Int("capacity", 1, "concurrent proving jobs offered to the coordinator")
		name     = flag.String("name", "", "worker display name reported to the coordinator")
	)
	flag.Parse()

	if *farmAddr == "" {
		fmt.Fprintln(os.Stderr, "zkflow-worker: -farm-addr is required")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := remote.WorkerConfig{Name: *name, Capacity: *capacity}

	// Reconnect loop: a dead coordinator (or a network blip) is retried
	// with capped exponential backoff; a successful session resets it.
	backoff := time.Second
	const maxBackoff = 30 * time.Second
	for {
		start := time.Now()
		err := remote.RunWorker(ctx, *farmAddr, cfg)
		if ctx.Err() != nil {
			log.Printf("worker shutting down")
			return
		}
		if time.Since(start) > maxBackoff {
			backoff = time.Second // the session worked for a while; reset
		}
		log.Printf("farm session ended (%v); reconnecting in %v", err, backoff)
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}
