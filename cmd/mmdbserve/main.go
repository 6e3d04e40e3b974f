// Command mmdbserve is the standalone mmdb server daemon: it opens a
// fresh database and serves the binary wire protocol on a TCP address
// until interrupted, shutting down gracefully (drain in-flight
// transactions, flush pending responses, settle the recovery
// component).
//
//	mmdbserve -addr 127.0.0.1:7707 -workers 8 -http 127.0.0.1:7780
//
// -http serves the ops plane on a side port: /metrics (Prometheus),
// /healthz, /recovery (JSON restart progress), /debug/pprof/. See
// docs/OBSERVABILITY.md.
//
// Remote clients: cmd/mmdbload (open-loop load rig) and
// cmd/mmdbsh -connect (interactive shell). See docs/NETWORK.md.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"mmdb"
	"mmdb/internal/fault"
	"mmdb/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7707", "TCP listen address")
		httpAddr    = flag.String("http", "", "ops-plane HTTP listen address (empty disables)")
		workers     = flag.Int("workers", 8, "transactions executing at once")
		flightBytes = flag.Int("flight-recorder", 0, "stable flight-recorder bytes (0 disables tracing)")
		recWorkers  = flag.Int("recovery-workers", 4, "background sweep workers after a crash (0 disables the sweep)")
		heatBytes   = flag.Int("heat-snapshot", 16<<10, "stable heat-snapshot bytes (0 disables heat tracking)")
		heatEvery   = flag.Int("heat-persist-every", 0, "persist the heat ranking every N touches (0 = default)")
	)
	flag.Parse()

	cfg := mmdb.DefaultConfig()
	cfg.FlightRecorderBytes = *flightBytes
	cfg.RecoveryWorkers = *recWorkers
	cfg.HeatSnapshotBytes = *heatBytes
	cfg.HeatPersistEvery = *heatEvery
	// An (initially empty) injector so remote OpCrash halts the
	// simulated machine sharply, exactly like the test crashes.
	cfg.FaultInjector = fault.NewInjector(fault.Plan{})

	db, err := mmdb.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmdbserve:", err)
		os.Exit(1)
	}
	s, err := server.New(db, cfg, server.Config{Addr: *addr, Workers: *workers})
	if err != nil {
		_ = db.Close()
		fmt.Fprintln(os.Stderr, "mmdbserve:", err)
		os.Exit(1)
	}
	fmt.Printf("mmdbserve: listening on %s (workers=%d)\n", s.Addr(), *workers)

	var opsSrv *http.Server
	if *httpAddr != "" {
		lis, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			_ = s.Close()
			fmt.Fprintln(os.Stderr, "mmdbserve: ops plane:", err)
			os.Exit(1)
		}
		opsSrv = &http.Server{Handler: s.OpsHandler()}
		go func() {
			if err := opsSrv.Serve(lis); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "mmdbserve: ops plane:", err)
			}
		}()
		fmt.Printf("mmdbserve: ops plane on http://%s (/metrics /healthz /recovery /debug/pprof)\n",
			lis.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("mmdbserve: draining...")
	if opsSrv != nil {
		_ = opsSrv.Close()
	}
	if err := s.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mmdbserve: close:", err)
		os.Exit(1)
	}
	fmt.Println("mmdbserve: bye")
}
