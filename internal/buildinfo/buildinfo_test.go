package buildinfo

import (
	"runtime/debug"
	"strings"
	"testing"
)

func TestReadNeverFails(t *testing.T) {
	info := Read()
	if info.Version == "" {
		t.Error("Version must never be empty")
	}
	if !strings.HasPrefix(info.GoVersion, "go") {
		t.Errorf("GoVersion = %q, want a toolchain version", info.GoVersion)
	}
}

// /healthz and every journal run_start read the build info, so it is
// parsed once: a later Read allocates nothing.
func TestReadOncePerProcess(t *testing.T) {
	first := Read()
	if allocs := testing.AllocsPerRun(100, func() {
		if Read() != first {
			t.Fatal("Read changed between calls")
		}
	}); allocs != 0 {
		t.Errorf("a repeated Read allocated %.0f times, want 0", allocs)
	}
}

func TestFromDebugRevisionStamping(t *testing.T) {
	bi := &debug.BuildInfo{GoVersion: "go1.22.0"}
	bi.Main.Version = "v1.4.0"
	bi.Settings = []debug.BuildSetting{
		{Key: "vcs.revision", Value: "0123456789abcdef0123"},
		{Key: "vcs.modified", Value: "true"},
	}
	info := fromDebug(bi)
	if info.Version != "v1.4.0" || info.GoVersion != "go1.22.0" {
		t.Errorf("info = %+v", info)
	}
	// Long hashes shorten to 12 chars; a modified worktree is flagged.
	if info.Revision != "0123456789ab+dirty" {
		t.Errorf("Revision = %q, want short hash with +dirty", info.Revision)
	}
}

func TestFromDebugNoVCS(t *testing.T) {
	info := fromDebug(&debug.BuildInfo{})
	if info.Version != "unknown" || info.Revision != "" {
		t.Errorf("info = %+v", info)
	}
}

func TestString(t *testing.T) {
	s := String("thalia-test")
	if !strings.HasPrefix(s, "thalia-test ") || !strings.Contains(s, "go") {
		t.Errorf("String = %q", s)
	}
}
