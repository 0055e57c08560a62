package main

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"

	"graphsql/internal/bench"
)

func parseTestArgs(args ...string) (string, bench.Options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, args)
}

// TestParseArgsRejectsBadValues pins the flag boundary: each case
// used to run nothing and exit 0 or panic inside a driver.
func TestParseArgsRejectsBadValues(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "nosuch"}, "table1 | fig1a | fig1b | baselines | phases | queues | dynindex"},
		{[]string{"-exp", "fig1b", "-batches", "0"}, "-batches"},
		{[]string{"-exp", "fig1b", "-batches", "1,-4"}, "-batches"},
		{[]string{"-exp", "fig1a", "-pairs", "-3"}, "-pairs"},
		{[]string{"-exp", "baselines", "-pairs", "0"}, "-pairs"},
		{[]string{"-sf", "1,x"}, "-sf"},
		{[]string{"-sf", ""}, "-sf"},
		{[]string{"-shrink", "0"}, "-shrink"},
		{[]string{"-workers", "-1"}, "-workers"},
	}
	for _, c := range cases {
		_, _, err := parseTestArgs(c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: got error %v, want one mentioning %q", c.args, err, c.want)
		}
	}
}

func TestParseArgsAcceptsEveryExperiment(t *testing.T) {
	names := []string{"all"}
	for _, x := range experiments {
		names = append(names, x.name)
	}
	for _, name := range names {
		exp, o, err := parseTestArgs("-exp", name, "-batches", "1,4", "-workers", "2")
		if err != nil || exp != name || !slices.Equal(o.BatchSizes, []int{1, 4}) || o.Parallelism != 2 {
			t.Errorf("-exp %s: got (%q, %+v, %v)", name, exp, o, err)
		}
	}
}
