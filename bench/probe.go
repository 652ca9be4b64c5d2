package main

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark runs on is shared, and other tenants slow it by
// up to 40% for minutes at a time. Some of it is contention for caches and
// memory bandwidth, which slows CPU time as much as wall time; some is time
// the virtual CPUs are not scheduled at all, which slows only wall time. No
// window a run can afford outlasts such a stretch. So each round of a
// closed-loop workload is also timed against a probe: a fixed piece of
// standard-library work with the same mix as THALIA's (XML tokenizing, JSON,
// maps, sorting, allocation, integer arithmetic and cache-missing reads),
// run on as many goroutines as the engine has workers, in pauses of the
// workload. Time metrics are reported at the reference speed, the speed at
// which a probe takes refProbe of wall time and refProbeCPU of CPU time: a
// latency is scaled by refProbe over the round's median probe, a CPU time
// by refProbeCPU over the round's median probe CPU time. A change to
// THALIA's code moves the workload and not the probe.

// refProbe and refProbeCPU are the probe's wall and CPU time at the
// reference speed: about their medians on an uncontended 2-vCPU Intel Xeon
// at 2.1 GHz.
const (
	refProbe    = 3 * time.Millisecond
	refProbeCPU = 5500 * time.Microsecond
)

// probeEvery is how often a closed loop pauses for a probe.
const probeEvery = 200 * time.Millisecond

// probeUnits is how many units of reference work one probe does.
const probeUnits = 8

// probe runs probeUnits units of reference work on concurrency goroutines
// that take units as they free up, as the engine's workers take cells, and
// returns the wall time until all are done and the CPU time the process
// spent meanwhile.
func probe() (wall, cpu time.Duration) {
	cpu0, start := processCPU(), time.Now()
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	wg.Add(concurrency)
	for i := 0; i < concurrency; i++ {
		go func() {
			defer wg.Done()
			n := 0
			for next.Add(1) <= probeUnits {
				n += probeXML() + probeJSON() + probeArith() + probeChase()
			}
			probeSink.Add(int64(n))
		}()
	}
	wg.Wait()
	return time.Since(start), processCPU() - cpu0
}

// probeSink keeps the compiler from discarding the probe's work.
var probeSink atomic.Int64

// probeDoc is a fixed catalog-like XML document.
var probeDoc = func() []byte {
	var b bytes.Buffer
	b.WriteString("<catalog>")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, `<course id="c%d"><code>CS%d</code><title>Topics in subject %d</title>`+
			`<instructor>Prof %d</instructor><time>%d:30</time><units>%d</units></course>`,
			i, 100+i, i*7%97, i%13, 8+i%10, 1+i%4)
	}
	b.WriteString("</catalog>")
	return b.Bytes()
}()

// probeXML tokenizes probeDoc, indexes its text by element and sorts it.
func probeXML() int {
	dec := xml.NewDecoder(bytes.NewReader(probeDoc))
	idx := map[string][]string{}
	var stack []string
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch t := tok.(type) {
		case xml.StartElement:
			stack = append(stack, t.Name.Local)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if s := strings.TrimSpace(string(t)); s != "" && len(stack) > 0 {
				top := stack[len(stack)-1]
				idx[top] = append(idx[top], strings.ToLower(s))
			}
		}
	}
	total := 0
	for _, v := range idx {
		sort.Strings(v)
		total += len(v)
	}
	return total
}

type probeRecord struct {
	ID    int               `json:"id"`
	Name  string            `json:"name"`
	Attrs map[string]string `json:"attrs"`
	Tags  []string          `json:"tags"`
}

// probeJSON builds fixed records, round-trips them through JSON, sorts
// them and indexes their tags.
func probeJSON() int {
	recs := make([]probeRecord, 25)
	x := uint64(88172645463325252)
	for i := range recs {
		x = xorshift(x)
		recs[i] = probeRecord{ID: i, Name: "course-" + strconv.FormatUint(x%100000, 10), Attrs: map[string]string{}}
		for j := 0; j < 6; j++ {
			recs[i].Attrs["k"+strconv.Itoa(j)] = strconv.FormatUint(x>>uint(j), 36)
			recs[i].Tags = append(recs[i].Tags, strconv.FormatUint(x>>uint(2*j)%977, 10))
		}
	}
	raw, err := json.Marshal(recs)
	if err != nil {
		panic(err) // fixed records always marshal
	}
	var back []probeRecord
	if err := json.Unmarshal(raw, &back); err != nil {
		panic(err)
	}
	sort.Slice(back, func(i, j int) bool { return back[i].Name < back[j].Name })
	idx := map[string]int{}
	for _, r := range back {
		for _, t := range r.Tags {
			idx[t] += r.ID
		}
	}
	return len(idx) + len(raw)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// probeArith is integer arithmetic with divisions, in registers.
func probeArith() int {
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 50000; i++ {
		x = xorshift(x)
		acc += x % 1000003
	}
	return int(acc & 1)
}

// chaseLinks is a random cycle over 4 MiB, mapped outside the Go heap so
// that it changes neither the workload's heap size nor its GC pacing. A
// closed loop calls it before it measures, so probeChase finds it built.
var chaseLinks = sync.OnceValues(func() ([]uint32, error) {
	const n = 1 << 20
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe: map 4 MiB: %w", err)
	}
	links := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
	for i := range links {
		links[i] = uint32(i)
	}
	// Sattolo's shuffle: the permutation it leaves is one cycle through
	// every link.
	x := uint64(1234567)
	for i := n - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		links[i], links[j] = links[j], links[i]
	}
	return links, nil
})

// probeChase follows the cycle: one cache miss per step.
func probeChase() int {
	links, _ := chaseLinks() // built, or its error returned, before any probe
	p := uint32(0)
	for i := 0; i < 5000 && links != nil; i++ {
		p = links[p]
	}
	return int(p & 1)
}
