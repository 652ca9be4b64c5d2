// Package buildinfo reads the binary's embedded build metadata
// (debug.ReadBuildInfo): module version, VCS revision, and the Go
// toolchain. It is the single source the CLIs' -version flags, the web
// site's /healthz, and journal run-start events all report, so every
// durable artifact names the exact build that produced it.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Info is the build metadata of the running binary.
type Info struct {
	// Version is the main module's version ("(devel)" for local builds).
	Version string `json:"version"`
	// Revision is the VCS revision (short hash, "+dirty" when the
	// worktree was modified), or "" when the binary was built without
	// VCS stamping.
	Revision string `json:"revision,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
}

// Read returns the binary's build metadata. It never fails: binaries built
// without build info (some test binaries) report version "unknown". The
// embedded record is parsed once per process, on the first call.
func Read() Info { return read() }

var read = sync.OnceValue(func() Info {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return Info{Version: "unknown", GoVersion: runtime.Version()}
	}
	return fromDebug(bi)
})

// fromDebug extracts Info from an already-read build record.
func fromDebug(bi *debug.BuildInfo) Info {
	info := Info{Version: "unknown", GoVersion: runtime.Version()}
	if bi.GoVersion != "" {
		info.GoVersion = bi.GoVersion
	}
	if bi.Main.Version != "" {
		info.Version = bi.Main.Version
	}
	var revision string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			revision = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if len(revision) > 12 {
		revision = revision[:12]
	}
	if dirty && revision != "" {
		revision += "+dirty"
	}
	info.Revision = revision
	return info
}

// String renders "name version (revision, goversion)" — the -version line.
func String(name string) string {
	info := Read()
	if info.Revision != "" {
		return fmt.Sprintf("%s %s (%s, %s)", name, info.Version, info.Revision, info.GoVersion)
	}
	return fmt.Sprintf("%s %s (%s)", name, info.Version, info.GoVersion)
}
