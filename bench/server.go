package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverFlags is the configuration under test, the same on every
// workload: lusail-server defaults (resilience on, coherence enforce
// with window 0, singleflight on, trace-sample 1, no OTLP sink) plus
// the statistics service and the cross-query subquery cache.
var serverFlags = []string{"-stats", "-subquery-cache", "512", "-log-level", "warn"}

// buildServer compiles cmd/lusail-server from the repository at root
// into dir and returns the binary's path.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "lusail-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lusail-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building lusail-server: %v\n%s", err, out)
	}
	return bin, nil
}

// child is a running lusail-server.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	client *http.Client
}

// startServer launches bin over the endpoint URLs and returns once
// /readyz answers 200 and the statistics harvest has stored one
// summary per endpoint.
func startServer(ctx context.Context, bin string, endpoints []string, procs int) (*child, error) {
	// Reserve a port by binding it and letting go; the child rebinds it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	args := append([]string{"-addr", addr}, serverFlags...)
	for _, u := range endpoints {
		args = append(args, "-endpoint", u)
	}
	c := &child{
		cmd:  exec.Command(bin, args...),
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
		}},
	}
	// go 1.22 sizes GOMAXPROCS from the host, not the container quota.
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	c.cmd.Stderr = &c.stderr
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	if err := c.waitWarm(ctx, len(endpoints)); err != nil {
		c.stop()
		return nil, fmt.Errorf("%w\nserver stderr:\n%s", err, c.stderr.String())
	}
	return c, nil
}

func (c *child) waitWarm(ctx context.Context, endpoints int) error {
	deadline := time.Now().Add(60 * time.Second)
	ready := false
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ready {
			resp, err := c.client.Get(c.base + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ready = resp.StatusCode == http.StatusOK
			}
		}
		if ready {
			n, err := c.summaries()
			if err != nil {
				return err
			}
			if n >= endpoints {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("lusail-server not warm after 60s (ready=%v)", ready)
}

// summaries asks /debug/stats how many endpoint summaries are held.
func (c *child) summaries() (int, error) {
	resp, err := c.client.Get(c.base + "/debug/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Stats struct{ Summaries int }
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, fmt.Errorf("/debug/stats: %w", err)
	}
	return body.Stats.Summaries, nil
}

// stop asks the server to drain, kills it if it does not, and waits
// for the process to end.
func (c *child) stop() {
	c.client.CloseIdleConnections()
	c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-done
	}
}

// scrape reads /metrics into series -> value, the series spelled as
// exposed (`name{label="v",...}`); exemplar suffixes are dropped.
func (c *child) scrape() (map[string]float64, error) {
	resp, err := c.client.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		// The value follows the last space outside the label braces.
		end := strings.LastIndexByte(line, '}') + 1
		sp := strings.IndexByte(line[end:], ' ')
		if sp < 0 {
			continue
		}
		series := line[:end+sp]
		fields := strings.Fields(line[end+sp:])
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// sumSeries adds every series of family name whose label set contains
// all of the given `key="value"` fragments.
func sumSeries(m map[string]float64, name string, labels ...string) float64 {
	var sum float64
series:
	for s, v := range m {
		fam, rest, _ := strings.Cut(s, "{")
		if fam != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue series
			}
		}
		sum += v
	}
	return sum
}

// cpuSeconds is the child's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func (c *child) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat times")
	}
	const clockTicks = 100 // USER_HZ on every Linux the harness targets
	return (utime + stime) / clockTicks, nil
}

// peakRSSMiB is the child's resident-set high-water mark (VmHWM).
func (c *child) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
