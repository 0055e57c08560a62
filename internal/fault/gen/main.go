// Command gen renders docs/FAULTPOINTS.md from fault.Registry. It runs
// under `go generate ./internal/fault`; CI regenerates the file and
// fails on any diff, so the doc cannot drift from the registry (and
// the registry cannot drift from the code, per the faultpoint analyzer
// and the fault package's own tests).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"graphsql/internal/fault"
)

func main() {
	out := flag.String("out", "", "output file (default: stdout)")
	flag.Parse()

	var b bytes.Buffer
	fmt.Fprintf(&b, `<!-- Code generated by go generate ./internal/fault (internal/fault/gen); DO NOT EDIT. -->

# Fault injection points

Every point the engine can inject faults at, generated from
`+"`fault.Registry`"+`. Arm a schedule with the `+"`GSQLD_FAULTS`"+`
environment variable, e.g.:

    GSQLD_FAULTS='solver.group:panic:p=0.05;wire.stream.encode:error:p=0.1'

The grammar is `+"`point:kind[:p=prob][:after=n][:ms=latency][:seed=s]`"+`
with kinds `+"`error`"+`, `+"`panic`"+` and `+"`latency`"+`; rules are
separated by `+"`;`"+` or `+"`,`"+`. A rule naming a point not listed
here is rejected at arm time, and the faultpoint analyzer (run by
`+"`go test ./internal/lint`"+`'s `+"`TestRepoIsClean`"+`) rejects
unregistered points at the injection site, so this list is complete by
construction.

| Point | Package | Effect |
|-------|---------|--------|
`)
	for _, p := range fault.Registry {
		fmt.Fprintf(&b, "| `%s` | `%s` | %s |\n", p.Name, p.Package, p.Effect)
	}

	if *out == "" {
		os.Stdout.Write(b.Bytes())
		return
	}
	if err := os.WriteFile(*out, b.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
