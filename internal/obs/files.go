package obs

import (
	"io"
	"os"
)

// WriteFiles writes reg's snapshot (JSON) to metricsPath and rec's
// journal (JSON Lines) to tracePath, skipping an empty path. Both
// formats are byte-stable: same seed and bounds, same bytes, at any
// GOMAXPROCS, so two runs' files can be compared with cmp.
func WriteFiles(metricsPath, tracePath string, reg *Registry, rec *Recorder) error {
	if metricsPath != "" {
		if err := WriteFile(metricsPath, reg.Snapshot().WriteJSON); err != nil {
			return err
		}
	}
	if tracePath != "" {
		return WriteFile(tracePath, rec.WriteJSONL)
	}
	return nil
}

// WriteFile creates path and writes through fn, closing cleanly.
func WriteFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
