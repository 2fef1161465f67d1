package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// topMain implements `pfpl top <addr>`: a live terminal view of a running
// serve daemon, polled from its GET /v1/status snapshot.
//
//	pfpl top :8080
//	pfpl top -interval 1s -count 5 http://daemon:8080
//
// Each refresh redraws a one-screen summary: daemon identity and uptime,
// the bounded resources (pipeline slots, admission budget, frame cache),
// tracing state, and a per-route RED table (requests, errors, latency
// percentiles). -count 1 prints once and exits, which is also the
// scripting-friendly mode.
func topMain(args []string) error {
	fs := flag.NewFlagSet("pfpl top", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	count := fs.Int("count", 0, "number of refreshes before exiting (0 = until interrupted)")
	noClear := fs.Bool("no-clear", false, "append refreshes instead of redrawing the screen")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: pfpl top [flags] <addr>")
	}
	url := statusURL(fs.Arg(0))

	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		st, err := fetchStatus(client, url)
		if err != nil {
			return err
		}
		if !*noClear && *count != 1 {
			fmt.Print("\x1b[2J\x1b[H") // clear + home
		}
		fmt.Print(renderStatus(st, url))
	}
	return nil
}

// statusURL normalizes a user-supplied address (":8080", "host:8080", or a
// full URL) into the status endpoint URL.
func statusURL(addr string) string {
	if !strings.Contains(addr, "://") {
		if strings.HasPrefix(addr, ":") {
			addr = "localhost" + addr
		}
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/") + "/v1/status"
}

// daemonStatus mirrors the /v1/status JSON shape (the fields top renders;
// unknown fields are ignored so old tops read new daemons).
type daemonStatus struct {
	Status string `json:"status"`
	Build  struct {
		Go       string `json:"go"`
		Revision string `json:"revision"`
	} `json:"build"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	PoolWorkers   int     `json:"pool_workers"`
	Slots         struct {
		Active int `json:"active"`
		Max    int `json:"max"`
	} `json:"slots"`
	Admission struct {
		InflightBytes  int64   `json:"inflight_bytes"`
		BudgetBytes    int64   `json:"budget_bytes"`
		DrainNsPerByte float64 `json:"drain_ns_per_byte"`
	} `json:"admission"`
	Cache struct {
		Frames     int   `json:"frames"`
		IdleFrames int   `json:"idle_frames"`
		Bytes      int64 `json:"bytes"`
	} `json:"cache"`
	Traces struct {
		Enabled  bool    `json:"enabled"`
		Sampling float64 `json:"sampling"`
		Stored   int     `json:"stored"`
		Recorded uint64  `json:"recorded"`
	} `json:"traces"`
	Routes map[string]struct {
		Requests     int64   `json:"requests"`
		Errors       int64   `json:"errors"`
		ClientErrors int64   `json:"client_errors"`
		P50Ms        float64 `json:"p50_ms"`
		P99Ms        float64 `json:"p99_ms"`
		MeanMs       float64 `json:"mean_ms"`
	} `json:"routes"`
}

func fetchStatus(client *http.Client, url string) (*daemonStatus, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s answered %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	st := new(daemonStatus)
	if err := json.Unmarshal(body, st); err != nil {
		return nil, fmt.Errorf("bad status payload from %s: %w", url, err)
	}
	return st, nil
}

// renderStatus formats one status snapshot as the top screen.
func renderStatus(st *daemonStatus, url string) string {
	var b strings.Builder
	rev := st.Build.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev == "" {
		rev = "untracked"
	}
	fmt.Fprintf(&b, "pfpl %s  %s  up %s  %s %s\n",
		st.Status, url, formatUptime(st.UptimeSeconds), st.Build.Go, rev)
	fmt.Fprintf(&b, "pool %d workers | slots %d/%d | admission %s of %s",
		st.PoolWorkers, st.Slots.Active, st.Slots.Max,
		formatBytes(st.Admission.InflightBytes), formatBytes(st.Admission.BudgetBytes))
	if st.Admission.DrainNsPerByte > 0 {
		fmt.Fprintf(&b, " | drain %.2f ns/B", st.Admission.DrainNsPerByte)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "cache %d frames (%d idle, %s)",
		st.Cache.Frames, st.Cache.IdleFrames, formatBytes(st.Cache.Bytes))
	if st.Traces.Enabled {
		fmt.Fprintf(&b, " | traces %d/%d kept (sampling %g)",
			st.Traces.Stored, st.Traces.Recorded, st.Traces.Sampling)
	} else {
		b.WriteString(" | tracing off")
	}
	b.WriteString("\n\n")

	if len(st.Routes) == 0 {
		b.WriteString("no requests yet\n")
		return b.String()
	}
	names := make([]string, 0, len(st.Routes))
	for name := range st.Routes {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ri, rj := st.Routes[names[i]], st.Routes[names[j]]
		if ri.Requests != rj.Requests {
			return ri.Requests > rj.Requests
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(&b, "%-12s %10s %8s %8s %10s %10s %10s\n",
		"ROUTE", "REQUESTS", "5XX", "4XX", "P50", "P99", "MEAN")
	for _, name := range names {
		r := st.Routes[name]
		fmt.Fprintf(&b, "%-12s %10d %8d %8d %10s %10s %10s\n",
			name, r.Requests, r.Errors, r.ClientErrors,
			formatMs(r.P50Ms), formatMs(r.P99Ms), formatMs(r.MeanMs))
	}
	return b.String()
}

func formatUptime(secs float64) string {
	d := time.Duration(secs * float64(time.Second))
	switch {
	case d >= 24*time.Hour:
		return fmt.Sprintf("%dd%dh", int(d.Hours())/24, int(d.Hours())%24)
	case d >= time.Hour:
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	case d >= time.Minute:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	}
	return fmt.Sprintf("%ds", int(d.Seconds()))
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func formatMs(ms float64) string {
	switch {
	case ms <= 0:
		return "-"
	case ms < 1:
		return fmt.Sprintf("%.0fµs", ms*1000)
	case ms < 1000:
		return fmt.Sprintf("%.1fms", ms)
	}
	return fmt.Sprintf("%.2fs", ms/1000)
}
