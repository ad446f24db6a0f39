package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// herdNodes are the backend names; each replicates its journal to the
// next, the last to the first.
var herdNodes = []string{"n0", "n1"}

// herdProc is one herd process the benchmark started.
type herdProc struct {
	name     string
	cmd      *exec.Cmd
	done     chan struct{} // closed once the process has exited
	stopping atomic.Bool
}

// herd is a gateway plus backends, each a real process, all living in
// one directory.
type herd struct {
	dir     string
	procs   []*herdProc
	gwURL   string
	nodeURL map[string]string
}

// freePorts reserves n distinct loopback ports and releases them for
// the herd to bind.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// errPortTaken marks a herd process that could not bind its port.
var errPortTaken = errors.New("port taken")

// herdStarts bounds how many times startHerd tries fresh ports.
const herdStarts = 3

// startHerd launches the backends and the gateway and waits until every
// one reports ready. freePorts releases its ports before the herd binds
// them, and another socket can take one in between; the herd is then
// started again, in a fresh directory, on other ports.
func startHerd(dir string) (*herd, error) {
	for attempt := 1; ; attempt++ {
		sub := filepath.Join(dir, fmt.Sprintf("start%d", attempt))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		h, err := startHerdOnce(sub)
		if err == nil || attempt == herdStarts || !errors.Is(err, errPortTaken) {
			return h, err
		}
		notef("note: %v; starting the herd again on other ports", err)
	}
}

func startHerdOnce(dir string) (*herd, error) {
	ports, err := freePorts(len(herdNodes) + 1)
	if err != nil {
		return nil, err
	}
	h := &herd{dir: dir, nodeURL: map[string]string{}}
	var backends []string
	for i, n := range herdNodes {
		h.nodeURL[n] = fmt.Sprintf("http://127.0.0.1:%d", ports[i])
		backends = append(backends, n+"="+h.nodeURL[n])
	}
	for i, n := range herdNodes {
		peer := herdNodes[(i+1)%len(herdNodes)]
		err := h.spawn(n, filepath.Join(binDir, "thermherdd"),
			"-addr", strings.TrimPrefix(h.nodeURL[n], "http://"),
			"-workers", "1",
			"-drain", "2s",
			"-node", n,
			// The journal lives in the run directory, on whatever disk
			// holds the checkout. With fsync on every append, another
			// tenant's writes to a shared disk set the number: under a
			// background fsync writer the median rose by about half and
			// the tail doubled. Without fsync every append still runs
			// through the journal code and is counted, and the same
			// writer moved the median by 2-13% and the tail by 10-12%.
			"-journal-dir", filepath.Join(dir, n),
			"-fsync", "off",
			"-repl", "sync",
			"-repl-peer", peer+"="+h.nodeURL[peer])
		if err != nil {
			h.stop()
			return nil, err
		}
	}
	h.gwURL = fmt.Sprintf("http://127.0.0.1:%d", ports[len(herdNodes)])
	err = h.spawn("gw", filepath.Join(binDir, "thermherd-gw"),
		"-addr", strings.TrimPrefix(h.gwURL, "http://"),
		"-probe-interval", "100ms",
		"-backends", strings.Join(backends, ","))
	if err != nil {
		h.stop()
		return nil, err
	}
	if err := h.waitReady(30 * time.Second); err != nil {
		h.stop()
		return nil, err
	}
	return h, nil
}

func (h *herd) spawn(name, bin string, args ...string) error {
	logf, err := os.Create(filepath.Join(h.dir, name+".log"))
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the herd if the benchmark itself dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("starting %s: %w", name, err)
	}
	p := &herdProc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	h.procs = append(h.procs, p)
	return nil
}

// waitReady polls every backend's /readyz and the gateway's until all
// backends are healthy.
func (h *herd) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, p := range h.procs {
		url := h.gwURL
		if u, ok := h.nodeURL[p.name]; ok {
			url = u
		}
		for {
			if err := h.crashed(); err != nil {
				return err
			}
			ok, err := h.readyAt(url)
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after %v: %v; log: %s", p.name, limit, err, h.logTail(p.name))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func (h *herd) readyAt(url string) (bool, error) {
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var doc struct {
		Backends []struct {
			State string `json:"state"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("/readyz %s", resp.Status)
	}
	for _, b := range doc.Backends {
		if b.State != "healthy" {
			return false, fmt.Errorf("backend %s", b.State)
		}
	}
	return true, nil
}

// crashed reports a herd process that exited without being asked to.
func (h *herd) crashed() error {
	for _, p := range h.procs {
		select {
		case <-p.done:
			if p.stopping.Load() {
				continue
			}
			logText := h.logTail(p.name)
			if strings.Contains(logText, "address already in use") {
				return fmt.Errorf("%w: herd process %s could not bind its port; log: %s", errPortTaken, p.name, logText)
			}
			return fmt.Errorf("herd process %s exited unexpectedly (%v); log: %s", p.name, p.cmd.ProcessState, logText)
		default:
		}
	}
	return nil
}

func (h *herd) logTail(name string) string {
	b, _ := os.ReadFile(filepath.Join(h.dir, name+".log"))
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// pids returns the herd's process ids.
func (h *herd) pids() []int {
	var ids []int
	for _, p := range h.procs {
		ids = append(ids, p.cmd.Process.Pid)
	}
	return ids
}

// herdStopWait bounds the wait for a herd process after SIGTERM. The
// backends drain within 2 s, then write a snapshot of the journal and
// fsync it, which a busy shared disk can hold up for seconds; a process
// still alive after this long has hung.
const herdStopWait = 20 * time.Second

// stop terminates the herd, gateway first, and waits for every process.
// It fails if a process had crashed or does not exit after SIGTERM.
func (h *herd) stop() error {
	errs := []error{h.crashed()}
	for i := len(h.procs) - 1; i >= 0; i-- {
		p := h.procs[i]
		p.stopping.Store(true)
		p.cmd.Process.Signal(syscall.SIGTERM)
		t0 := time.Now()
		select {
		case <-p.done:
			if d := time.Since(t0); d > 3*time.Second {
				notef("note: herd process %s took %v to exit after SIGTERM", p.name, d.Round(time.Millisecond))
			}
		case <-time.After(herdStopWait):
			p.cmd.Process.Kill()
			<-p.done
			errs = append(errs, fmt.Errorf("herd process %s did not exit within %v of SIGTERM", p.name, herdStopWait))
		}
	}
	return errors.Join(errs...)
}

// herdClient is the load generator's HTTP client: at most herdConns connections
// to the gateway.
func herdClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     herdConns,
		MaxIdleConnsPerHost: herdConns,
		DisableCompression:  true,
	}}
}

// getJSON fetches url into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

// counters are the /metrics counters the herd workload reads, summed
// over the backends, plus the gateway's forward retries.
type counters struct {
	appends, fsyncs, streamed, hits, completed, retries float64
}

func (h *herd) counters(c *http.Client) (counters, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var t counters
	for _, n := range herdNodes {
		var doc map[string]any
		if err := getJSON(ctx, c, h.nodeURL[n]+"/metrics", &doc); err != nil {
			return t, err
		}
		t.appends += leaf(doc, "journal", "appends")
		t.fsyncs += leaf(doc, "journal", "fsyncs")
		t.streamed += leaf(doc, "repl", "streamed")
		t.hits += leaf(doc, "cache", "hits")
		t.completed += leaf(doc, "jobs", "completed")
	}
	var doc map[string]any
	if err := getJSON(ctx, c, h.gwURL+"/metrics", &doc); err != nil {
		return t, err
	}
	t.retries = leaf(doc, "gateway", "forward_retries")
	return t, nil
}

// leaf reads a numeric leaf of a nested /metrics document, 0 if absent.
func leaf(doc map[string]any, path ...string) float64 {
	var cur any = doc
	for _, k := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[k]
	}
	v, _ := cur.(float64)
	return v
}
