// Command relaxlint is the repository's static analyzer. It runs one
// pass, err-drop: an error result must not be discarded with a blank
// identifier outside tests. See internal/lint for the pass and the
// //lint:ignore suppression convention.
//
// Usage:
//
//	relaxlint [flags] [patterns...]
//
//	-json            emit findings as a JSON array (stable order)
//	-dir root        module root to analyze (default ".")
//
// Patterns default to ./... and are interpreted relative to -dir.
// Exit status is 0 when clean, 1 when findings are reported, and 2 on
// analysis failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"relaxlattice/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (for CI consumption)")
	dir := flag.String("dir", ".", "module root to analyze")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.Run(*dir, patterns)
	if err != nil {
		fail(err)
	}
	if *jsonOut {
		if diags == nil {
			diags = []lint.Diagnostic{} // a clean tree is [], not null
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "relaxlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "relaxlint:", err)
	os.Exit(2)
}
