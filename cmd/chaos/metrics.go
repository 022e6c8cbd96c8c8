package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"sort"
	"time"

	"debruijnring/obs"
)

// fetchSnapshot GETs a JSON metrics snapshot (shard /v1/metrics or the
// router's merged fleet-wide view — same shape either way).
func fetchSnapshot(url string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, err
	}
	return snap, nil
}

// fleetShardURLs asks the server for its fleet status and returns the
// active shard URLs.  A plain ringsrv answers 404 (it is not a router);
// that reads as "no shards" rather than an error.
func fleetShardURLs(server string) []string {
	resp, err := http.Get(server + "/v1/fleet")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var groups []struct {
		Active string `json:"active"`
		Down   bool   `json:"down"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&groups); err != nil {
		return nil
	}
	var urls []string
	for _, g := range groups {
		if !g.Down && g.Active != "" {
			urls = append(urls, g.Active)
		}
	}
	return urls
}

// reportFleetMetrics prints the server-side per-tier repair-latency
// quantiles from the merged metrics snapshot, and — against a ringfleet
// router — verifies the router's merge bucket-for-bucket against the
// shard-local snapshots merged offline.  Quantiles computed on the
// merged histogram are exact fleet-wide quantiles (to bucket width),
// which averaging per-shard quantiles would not be.
func reportFleetMetrics(server string) error {
	merged, err := fetchSnapshot(server + "/v1/metrics")
	if err != nil {
		return fmt.Errorf("fetching server metrics: %w", err)
	}
	var keys []string
	for key := range merged.Histograms {
		if obs.Family(key) == "session_repair_ns" {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		fmt.Println("server metrics: no session_repair_ns series yet")
		return nil
	}
	fmt.Println()
	fmt.Println("server-side repair histograms (merged fleet view):")
	fmt.Printf("%-48s %8s  %12s  %12s  %12s  %12s\n", "series", "count", "mean", "p50", "p99", "p999")
	for _, key := range keys {
		h := merged.Histograms[key]
		fmt.Printf("%-48s %8d  %12s  %12s  %12s  %12s\n", key, h.Count,
			time.Duration(h.Mean()),
			time.Duration(h.Quantile(0.50)),
			time.Duration(h.Quantile(0.99)),
			time.Duration(h.Quantile(0.999)))
	}

	shards := fleetShardURLs(server)
	if len(shards) == 0 {
		return nil // plain ringsrv: the snapshot IS the shard-local view
	}
	snaps := make([]obs.Snapshot, 0, len(shards))
	for _, u := range shards {
		s, err := fetchSnapshot(u + "/v1/metrics")
		if err != nil {
			// Shards may be unreachable from the client side (router-only
			// network); the cross-check is then impossible, not failed.
			fmt.Fprintf(os.Stderr, "chaos: shard %s metrics unreachable (%v); skipping the offline cross-check\n", u, err)
			return nil
		}
		snaps = append(snaps, s)
	}
	offline, err := obs.Merge(snaps...)
	if err != nil {
		return fmt.Errorf("merging shard snapshots offline: %w", err)
	}
	for _, key := range keys {
		got, want := merged.Histograms[key], offline.Histograms[key]
		if got.Count != want.Count || got.Sum != want.Sum || !reflect.DeepEqual(got.Buckets, want.Buckets) {
			return fmt.Errorf("METRICS DIVERGENCE: %s: router-merged histogram (count %d, sum %d) disagrees with %d shard snapshots merged offline (count %d, sum %d)",
				key, got.Count, got.Sum, len(snaps), want.Count, want.Sum)
		}
	}
	fmt.Printf("fleet metrics check: %d repair series agree with %d shard snapshot(s) merged offline\n",
		len(keys), len(snaps))
	return nil
}
