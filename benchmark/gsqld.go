package main

// The gsqld child process: built from source with the go toolchain,
// started on a free loopback port with default flags plus -debug-addr,
// and observed only from outside — GET /stats, /proc/<pid> and the
// pprof heap?debug=1 MemStats block.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
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

// repoRoot finds the graphsql module root: the nearest ancestor of the
// working directory whose go.mod declares `module graphsql`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(data), []byte("module graphsql\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("graphsql module root not found above the working directory")
		}
		dir = parent
	}
}

// buildGsqld compiles cmd/gsqld into <root>/.bench_build and returns
// the binary's path. The go build cache makes repeats cheap.
func buildGsqld(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "gsqld")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/gsqld")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/gsqld: %v\n%s", err, msg)
	}
	return out, nil
}

// gsqld is one running server child.
type gsqld struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	debug    string // http://127.0.0.1:debugport
	pid      int
	startDur time.Duration
	stderr   *bytes.Buffer
}

// freePorts asks the kernel for two distinct unused loopback ports. Both
// listeners are held until both ports are known: a port released early
// may be handed out again by the very next request. They are closed
// before gsqld binds them, so startGsqld retries on a lost race.
func freePorts() (port, debugPort int, err error) {
	a, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	return a.Addr().(*net.TCPAddr).Port, b.Addr().(*net.TCPAddr).Port, nil
}

// startGsqld launches the binary and waits until /healthz answers.
func startGsqld(bin string) (*gsqld, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		g, err := startGsqldOnce(bin)
		if err == nil {
			return g, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func startGsqldOnce(bin string) (*gsqld, error) {
	port, dport, err := freePorts()
	if err != nil {
		return nil, err
	}
	g := &gsqld{
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		debug:  "http://127.0.0.1:" + strconv.Itoa(dport),
		stderr: &bytes.Buffer{},
	}
	g.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:"+strconv.Itoa(port),
		"-debug-addr", "127.0.0.1:"+strconv.Itoa(dport))
	g.cmd.Stderr = g.stderr
	start := time.Now()
	if err := g.cmd.Start(); err != nil {
		return nil, err
	}
	g.pid = g.cmd.Process.Pid
	deadline := start.Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// Both listeners must answer: a debug port lost to another process
		// would otherwise only show when the first pass reads MemStats.
		if ok200(g.base+"/healthz") && ok200(g.debug+"/debug/pprof/cmdline") {
			g.startDur = time.Since(start)
			return g, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	g.stop()
	return nil, fmt.Errorf("gsqld did not become healthy on %s: %s", g.base, g.stderr.String())
}

func ok200(url string) bool {
	resp, err := http.Get(url)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop terminates the child (SIGTERM, then SIGKILL after the server's
// own 10 s drain budget) and waits until it has exited.
func (g *gsqld) stop() {
	if g.cmd == nil || g.cmd.Process == nil {
		return
	}
	g.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		g.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(12 * time.Second):
		g.cmd.Process.Kill()
		<-done
	}
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Queries   uint64 `json:"queries"`
	Errors    uint64 `json:"errors"`
	Admission struct {
		Admitted   uint64 `json:"admitted"`
		EverQueued uint64 `json:"ever_queued"`
		Rejected   uint64 `json:"rejected"`
	} `json:"admission"`
	Cache struct {
		Hits        uint64 `json:"hits"`
		Misses      uint64 `json:"misses"`
		Evictions   uint64 `json:"evictions"`
		Invalidated uint64 `json:"invalidated_entries"`
	} `json:"cache"`
	Graphs []struct {
		Name            string `json:"name"`
		PlanCacheHits   uint64 `json:"plan_cache_hits"`
		PlanCacheMisses uint64 `json:"plan_cache_misses"`
	} `json:"graphs"`
}

// parseStats decodes a /stats body.
func parseStats(data []byte) (*serverStats, error) {
	var st serverStats
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &st, nil
}

// planCache returns the plan-cache counters of one graph.
func (st *serverStats) planCache(graph string) (hits, misses uint64) {
	for _, g := range st.Graphs {
		if g.Name == graph {
			return g.PlanCacheHits, g.PlanCacheMisses
		}
	}
	return 0, 0
}

func httpGetAll(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return data, nil
}

func (g *gsqld) stats() (*serverStats, error) {
	data, err := httpGetAll(g.base + "/stats")
	if err != nil {
		return nil, err
	}
	return parseStats(data)
}

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time
// in these units. It is 100 on every Linux ABI Go supports.
const clockTick = 100

// parseProcStat extracts user+system CPU time from a /proc/<pid>/stat
// line. The command name (field 2) may contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseProcStat(data []byte) (time.Duration, error) {
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("/proc stat: no command field")
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("/proc stat: too few fields")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("/proc stat: bad utime/stime")
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// cpuTime reads the accumulated user+system CPU time of a process.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStat(data)
}

// parseProcStatus extracts VmRSS and VmHWM (kB) from /proc/<pid>/status.
func parseProcStatus(data []byte) (rssKB, hwmKB int64, err error) {
	rssKB, hwmKB = -1, -1
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		var dst *int64
		switch {
		case strings.HasPrefix(line, "VmRSS:"):
			dst = &rssKB
		case strings.HasPrefix(line, "VmHWM:"):
			dst = &hwmKB
		default:
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0, 0, fmt.Errorf("/proc status: malformed line %q", line)
		}
		if *dst, err = strconv.ParseInt(f[1], 10, 64); err != nil {
			return 0, 0, fmt.Errorf("/proc status: %q: %w", line, err)
		}
	}
	if rssKB < 0 || hwmKB < 0 {
		return 0, 0, errors.New("/proc status: VmRSS or VmHWM missing")
	}
	return rssKB, hwmKB, nil
}

func (g *gsqld) memory() (rssKB, hwmKB int64, err error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(g.pid) + "/status")
	if err != nil {
		return 0, 0, err
	}
	return parseProcStatus(data)
}

// memStats is the part of runtime.MemStats that the pprof
// heap?debug=1 text profile prints in its trailing comment block.
type memStats struct {
	Mallocs    uint64
	TotalAlloc uint64
	NumGC      uint64
	// PauseNs is the runtime's circular buffer of recent GC pauses; the
	// pause of cycle n (1-based) sits at index (n+255)%256.
	PauseNs [256]uint64
}

// parseMemStats reads the "# runtime.MemStats" block of a
// heap?debug=1 profile.
func parseMemStats(data []byte) (*memStats, error) {
	var ms memStats
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		var dst *uint64
		switch name {
		case "Mallocs":
			dst = &ms.Mallocs
		case "TotalAlloc":
			dst = &ms.TotalAlloc
		case "NumGC":
			dst = &ms.NumGC
		case "PauseNs":
			f := strings.Fields(strings.Trim(val, "[]"))
			if len(f) != len(ms.PauseNs) {
				return nil, fmt.Errorf("heap profile: PauseNs has %d entries", len(f))
			}
			for i, s := range f {
				n, err := strconv.ParseUint(s, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("heap profile: PauseNs: %w", err)
				}
				ms.PauseNs[i] = n
			}
			seen++
			continue
		default:
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("heap profile: %s: %w", name, err)
		}
		*dst = n
		seen++
	}
	if seen != 4 {
		return nil, fmt.Errorf("heap profile: MemStats block incomplete (%d of 4 fields)", seen)
	}
	return &ms, nil
}

// gcPauseSince sums the GC pauses of the cycles after prev, as far back
// as the 256-entry buffer remembers.
func (ms *memStats) gcPauseSince(prev *memStats) time.Duration {
	from := prev.NumGC
	if ms.NumGC > uint64(len(ms.PauseNs)) && from < ms.NumGC-uint64(len(ms.PauseNs)) {
		from = ms.NumGC - uint64(len(ms.PauseNs))
	}
	var ns uint64
	for n := from + 1; n <= ms.NumGC; n++ {
		ns += ms.PauseNs[(n+255)%256]
	}
	return time.Duration(ns)
}

func (g *gsqld) memStats() (*memStats, error) {
	data, err := httpGetAll(g.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	return parseMemStats(data)
}
