package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"textjoin/internal/metrics"
)

// runSmoke is the process check behind `textjoind -smoke` (and `make
// obs-smoke`): it boots the server on an ephemeral loopback port, answers
// one /join and one /metrics scrape through real HTTP, checks the
// exposition with the strict parser, and shuts the listener down cleanly.
// Any failure returns an error (non-zero exit). What the serving path
// must do under concurrency, admission pressure and faults is
// TestServingSchedule's, in process.
func runSmoke(cfg config, out io.Writer) error {
	// A small workspace keeps the smoke run under a second.
	if cfg.Scale < 4096 {
		cfg.Scale = 4096
	}
	srv, err := newServer(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "smoke: workspace %s\n", srv.describe())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	client := &http.Client{Timeout: 30 * time.Second}
	get := func(path string) ([]byte, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body, nil
	}
	check := func() error {
		body, err := get("/join?alg=auto&show=1")
		if err != nil {
			return err
		}
		var j joinResponse
		if err := json.Unmarshal(body, &j); err != nil {
			return err
		}
		if !j.Integrated || j.OuterDocs == 0 {
			return fmt.Errorf("unexpected join response: %s", body)
		}
		fmt.Fprintf(out, "smoke: integrated chose %s (cost %.0f)\n", j.Algorithm, j.Cost)
		body, err = get("/metrics")
		if err != nil {
			return err
		}
		if err := metrics.Lint(body); err != nil {
			return fmt.Errorf("exposition rejected: %v", err)
		}
		return nil
	}
	if err := check(); err != nil {
		//lint:ignore errdrop a shutdown error must not mask the failing check's error
		hs.Close()
		return err
	}
	fmt.Fprintln(out, "smoke: join and exposition ok")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintln(out, "smoke: shutdown clean")
	return nil
}
