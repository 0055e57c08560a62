package main

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	line := "4242 (gsqld (v2) x) S 1 4242 4242 0 -1 4194304 1391 0 0 0 731 269 0 0 20 0 9 0 5112 1300000000 31000 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := 10 * time.Second; got != want { // (731+269) ticks at 100 Hz
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
}

func TestParseProcStatus(t *testing.T) {
	status := "Name:\tgsqld\nVmPeak:\t 2000 kB\nVmHWM:\t  553244 kB\nVmRSS:\t  241260 kB\nThreads:\t9\n"
	rss, hwm, err := parseProcStatus([]byte(status))
	if err != nil || rss != 241260 || hwm != 553244 {
		t.Errorf("rss %d hwm %d err %v", rss, hwm, err)
	}
	if _, _, err := parseProcStatus([]byte("Name:\tx\nVmRSS:\t1 kB\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

// heapProfile renders the trailing MemStats block of heap?debug=1.
func heapProfile(mallocs, totalAlloc, numGC uint64, pauses map[int]uint64) string {
	var p [256]string
	for i := range p {
		p[i] = fmt.Sprint(pauses[i])
	}
	return "heap profile: 1: 16 [2: 32] @ heap/1048576\n1: 16 [2: 32] @ 0x1 0x2\n\n" +
		"# runtime.MemStats\n# Alloc = 1000\n" +
		fmt.Sprintf("# TotalAlloc = %d\n# Sys = 5\n# Lookups = 0\n# Mallocs = %d\n# Frees = 3\n", totalAlloc, mallocs) +
		"# HeapAlloc = 1000\n# PauseNs = [" + strings.Join(p[:], " ") + "]\n# PauseEnd = [0 0]\n" +
		fmt.Sprintf("# NumGC = %d\n# NumForcedGC = 0\n# GCCPUFraction = 0.01\n# DebugGC = false\n# MaxRSS = 1\n", numGC)
}

func TestParseMemStats(t *testing.T) {
	before, err := parseMemStats([]byte(heapProfile(100, 4096, 2, map[int]uint64{0: 50, 1: 60})))
	if err != nil {
		t.Fatal(err)
	}
	// Cycles 3 and 4 sit at indices 2 and 3.
	after, err := parseMemStats([]byte(heapProfile(900, 65536, 4, map[int]uint64{0: 50, 1: 60, 2: 700, 3: 800})))
	if err != nil {
		t.Fatal(err)
	}
	if after.Mallocs-before.Mallocs != 800 || after.TotalAlloc != 65536 || after.NumGC != 4 {
		t.Errorf("parsed %+v", after)
	}
	if got := after.gcPauseSince(before); got != 1500 {
		t.Errorf("gc pause since = %v, want 1500ns", got)
	}
	// Past 256 cycles only the buffer's worth is remembered: cycle 300
	// sits at index (300+255)%256 = 43.
	wrapped, _ := parseMemStats([]byte(heapProfile(1, 1, 300, map[int]uint64{43: 9, 44: 1000})))
	if got := wrapped.gcPauseSince(before); got != 1009 {
		t.Errorf("wrapped gc pause = %v, want 1009ns (all 256 remembered cycles)", got)
	}
	if _, err := parseMemStats([]byte("# runtime.MemStats\n# Mallocs = 1\n")); err == nil {
		t.Error("incomplete MemStats block accepted")
	}
}

func TestParseStats(t *testing.T) {
	body := `{"uptime_seconds":1.5,"queries":40,"errors":1,"admission":{"admitted":39,"ever_queued":2,"rejected":3},
	 "cache":{"hits":30,"misses":10,"evictions":4,"invalidated_entries":16},
	 "graphs":[{"name":"default","plan_cache_hits":0,"plan_cache_misses":0},{"name":"ldbc_rw","plan_cache_hits":7,"plan_cache_misses":2}]}`
	st, err := parseStats([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 30 || st.Cache.Invalidated != 16 || st.Admission.Rejected != 3 || st.Errors != 1 {
		t.Errorf("parsed %+v", st)
	}
	if h, m := st.planCache("ldbc_rw"); h != 7 || m != 2 {
		t.Errorf("plan cache of ldbc_rw = %d/%d", h, m)
	}
	if h, m := st.planCache("absent"); h != 0 || m != 0 {
		t.Errorf("plan cache of an unknown graph = %d/%d", h, m)
	}
	if _, err := parseStats([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
}
