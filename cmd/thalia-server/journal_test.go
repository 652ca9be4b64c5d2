package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestServerVersionFlag(t *testing.T) {
	var stdout syncBuffer
	if err := run(context.Background(), []string{"-version"}, &stdout, io.Discard); err != nil {
		t.Fatalf("-version: %v", err)
	}
	if !strings.Contains(stdout.String(), "thalia-server") {
		t.Errorf("version output = %q", stdout.String())
	}
}

// -h prints the flags and is not a failure.
func TestServerHelpFlag(t *testing.T) {
	var stderr syncBuffer
	if err := run(context.Background(), []string{"-h"}, io.Discard, &stderr); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(stderr.String(), "-journal-dir") {
		t.Errorf("usage = %q", stderr.String())
	}
}

// Boot with -journal-dir, start a run over HTTP, and require the journal
// on disk once the run reports complete.
func TestServerJournalDir(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-quiet", "-drain", "5s",
			"-journal-dir", dir}, &stdout, io.Discard)
	}()
	var addr string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("server exited before listening: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if addr == "" {
		t.Fatalf("server never reported its address; stdout: %q", stdout.String())
	}
	base := "http://" + addr

	resp, err := http.PostForm(base+"/runs", url.Values{"system": {"cohera"}})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs: %d %s", resp.StatusCode, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		t.Fatalf("POST /runs body = %q (err %v)", body, err)
	}

	var complete bool
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/runs/" + created.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var sum struct {
			Complete bool `json:"complete"`
		}
		if err := json.Unmarshal(b, &sum); err != nil {
			t.Fatalf("run summary = %q (err %v)", b, err)
		}
		if sum.Complete {
			complete = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !complete {
		t.Fatal("run never completed")
	}

	if _, err := os.Stat(filepath.Join(dir, created.ID+".jsonl")); err != nil {
		t.Errorf("journal file missing: %v", err)
	}

	// The listing includes the run.
	resp, err = http.Get(base + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), created.ID) {
		t.Errorf("GET /runs missing %s:\n%s", created.ID, b)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
