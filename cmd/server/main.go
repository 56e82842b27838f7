// Command server runs the checker farm: a long-running HTTP service
// that accepts check and soak jobs over REST (internal/service),
// schedules them multi-tenant over the shared exploration engine, and
// persists everything in an internal/store directory so jobs survive
// restarts — on boot every job that was queued or running when the
// previous process died is resumed from its last checkpoint.
//
// Usage:
//
//	server -addr :8080 -store ./farm
//	server -addr :8080 -store ./farm -workers 4 -max-jobs 2 -queue 16
//
// Submit jobs with curl (see README.md "Running the farm"):
//
//	curl -X POST localhost:8080/jobs -d '{"kind":"check","check":{"meta":{"workload":"unicons","n":2,"q":8,"max_steps":262144},"mode":"all"}}'
//	curl localhost:8080/jobs/job-000001
//	curl localhost:8080/jobs/job-000001/events
//	curl -X DELETE localhost:8080/jobs/job-000001
//
// SIGINT/SIGTERM stop gracefully: running jobs are interrupted at
// their next durability boundary, checkpointed, and marked for resume;
// the process then exits 0. A second signal aborts immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		storeDir = flag.String("store", "./farm", "persistent store directory (jobs, artifacts, lint cache)")
		workers  = flag.Int("workers", 0, "global exploration-worker budget shared across jobs (0 = all CPUs)")
		maxJobs  = flag.Int("max-jobs", 0, "max concurrently running jobs (0 = 2)")
		queue    = flag.Int("queue", 0, "bounded job-queue depth; a full queue rejects submissions (0 = 16)")
		leg      = flag.Int("leg", 0, "schedules per durability leg for check jobs (0 = 2000)")
	)
	flag.Parse()

	st, err := store.Open(*storeDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "server: %v\n", err)
		os.Exit(1)
	}
	svc, err := service.New(service.Config{
		Store:         st,
		GlobalWorkers: *workers,
		MaxActiveJobs: *maxJobs,
		QueueDepth:    *queue,
		LegSchedules:  *leg,
		Log:           func(msg string) { fmt.Fprintln(os.Stderr, "server: "+msg) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "server: %v\n", err)
		os.Exit(1)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "server: signal received; interrupting jobs at their next checkpoint (signal again to abort)")
		go func() {
			<-sigs
			fmt.Fprintln(os.Stderr, "server: second signal; aborting")
			os.Exit(130)
		}()
		// Stop accepting and running work first, then close the listener:
		// in-flight event streams end when the service shuts down.
		svc.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		close(done)
	}()

	fmt.Printf("server: listening on %s, store %s\n", *addr, *storeDir)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "server: %v\n", err)
		os.Exit(1)
	}
	<-done
	fmt.Println("server: graceful shutdown complete")
}
