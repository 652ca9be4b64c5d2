package website

import (
	"archive/zip"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec, string(body)
}

func TestHomePage(t *testing.T) {
	h := New().Handler()
	rec, body := get(t, h, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	for _, want := range []string{
		"THALIA", "University Course Catalogs", "Browse Data and Schema",
		"Run Benchmark", "Upload Your Scores", "Honor Roll",
		"Synonyms", "Attribute Composition",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("home page missing %q", want)
		}
	}
	if rec, _ := get(t, h, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path: %d", rec.Code)
	}
}

func TestCatalogList(t *testing.T) {
	h := New().Handler()
	rec, body := get(t, h, "/catalogs")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	for _, want := range []string{"Brown University", "Carnegie Mellon", "ETH"} {
		if !strings.Contains(body, want) {
			t.Errorf("catalog list missing %q", want)
		}
	}
}

func TestOriginalCatalogPage(t *testing.T) {
	h := New().Handler()
	rec, body := get(t, h, "/catalogs/brown")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(body, "Title/Time") || !strings.Contains(body, "CS016") {
		t.Error("brown original page wrong")
	}
	if rec, _ := get(t, h, "/catalogs/ghost"); rec.Code != http.StatusNotFound {
		t.Errorf("ghost catalog: %d", rec.Code)
	}
}

func TestBrowseXMLAndSchema(t *testing.T) {
	h := New().Handler()
	rec, body := get(t, h, "/browse/cmu")
	if rec.Code != http.StatusOK || !strings.Contains(body, "<Lecturer>") {
		t.Errorf("browse xml: %d %.120s", rec.Code, body)
	}
	rec, body = get(t, h, "/schema/cmu")
	if rec.Code != http.StatusOK || !strings.Contains(body, "xs:schema") {
		t.Errorf("schema: %d %.120s", rec.Code, body)
	}
	if rec, _ := get(t, h, "/browse/ghost"); rec.Code != http.StatusNotFound {
		t.Errorf("ghost browse: %d", rec.Code)
	}
}

func TestQueriesPage(t *testing.T) {
	h := New().Handler()
	_, body := get(t, h, "/queries")
	for _, want := range []string{"Query 1", "Query 12", "Lecturer", "Datenbank"} {
		if !strings.Contains(body, want) {
			t.Errorf("queries page missing %q", want)
		}
	}
}

func readZip(t *testing.T, body []byte) map[string]string {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatalf("zip: %v", err)
	}
	out := map[string]string{}
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(rc)
		rc.Close()
		out[f.Name] = string(data)
	}
	return out
}

func TestDownloadCatalogsZip(t *testing.T) {
	h := New().Handler()
	req := httptest.NewRequest(http.MethodGet, "/download/catalogs.zip", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	files := readZip(t, rec.Body.Bytes())
	if len(files) < 50 { // 25+ sources × (xml + xsd)
		t.Errorf("catalog zip has %d files", len(files))
	}
	if !strings.Contains(files["brown.xml"], "<Course>") {
		t.Error("brown.xml missing or wrong")
	}
	if !strings.Contains(files["brown.xsd"], "xs:schema") {
		t.Error("brown.xsd missing or wrong")
	}
}

func TestDownloadBenchmarkZip(t *testing.T) {
	h := New().Handler()
	req := httptest.NewRequest(http.MethodGet, "/download/benchmark.zip", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	files := readZip(t, rec.Body.Bytes())
	for _, want := range []string{"queries/query01.xq", "queries/query12.xq", "data/cmu.xml", "data/eth.xsd"} {
		if _, ok := files[want]; !ok {
			t.Errorf("benchmark zip missing %s (have %d files)", want, len(files))
		}
	}
	if !strings.Contains(files["queries/query01.xq"], "Instructor") {
		t.Error("query01 content wrong")
	}
}

func TestDownloadSolutionsZip(t *testing.T) {
	h := New().Handler()
	req := httptest.NewRequest(http.MethodGet, "/download/solutions.zip", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	files := readZip(t, rec.Body.Bytes())
	if len(files) != 12 {
		t.Fatalf("solutions zip has %d files, want 12", len(files))
	}
	if !strings.Contains(files["solutions/query01.xml"], `source="gatech"`) {
		t.Errorf("solution 1 wrong: %.200s", files["solutions/query01.xml"])
	}
	if !strings.Contains(files["solutions/query08.xml"], "(not applicable)") {
		t.Error("solution 8 must mark ETH rows inapplicable")
	}
}

func TestScoreUploadAndHonorRoll(t *testing.T) {
	h := New().Handler()
	// GET shows the form.
	_, body := get(t, h, "/scores")
	if !strings.Contains(body, "<form") {
		t.Error("scores form missing")
	}
	// POST uploads a score.
	form := url.Values{"system": {"MySys"}, "group": {"MyLab"}, "correct": {"7"}, "complexity": {"5"}}
	req := httptest.NewRequest(http.MethodPost, "/scores", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("upload status %d: %s", rec.Code, rec.Body.String())
	}
	_, body = get(t, h, "/honor-roll")
	if !strings.Contains(body, "MySys") || !strings.Contains(body, "7/12") {
		t.Errorf("honor roll missing upload: %s", body)
	}
	// Invalid uploads are rejected: bad fields, a name longer than 200
	// bytes, a body over 64 KiB.
	for _, tc := range []struct {
		name string
		form url.Values
		want int
	}{
		{"bad fields", url.Values{"system": {""}, "correct": {"99"}, "complexity": {"x"}}, http.StatusBadRequest},
		{"long system", url.Values{"system": {strings.Repeat("s", 201)}, "group": {"g"}, "correct": {"1"}, "complexity": {"1"}}, http.StatusBadRequest},
		{"long group", url.Values{"system": {"s"}, "group": {strings.Repeat("g", 201)}, "correct": {"1"}, "complexity": {"1"}}, http.StatusBadRequest},
		{"oversized body", url.Values{"system": {strings.Repeat("s", 100<<10)}, "group": {"g"}, "correct": {"1"}, "complexity": {"1"}}, http.StatusRequestEntityTooLarge},
	} {
		if code := postScore(h, tc.form); code != tc.want {
			t.Errorf("%s: upload status %d, want %d", tc.name, code, tc.want)
		}
	}
	// The roll keeps its 1000 best: after 1001 uploads to a fresh site the
	// one lowest-ranked upload is gone.
	site := New()
	h = site.Handler()
	for k := 0; k < 1001; k++ {
		correct := "12"
		if k == 500 {
			correct = "0"
		}
		form := url.Values{"system": {"sys" + strconv.Itoa(k)}, "group": {"g"}, "correct": {correct}, "complexity": {"1"}}
		if code := postScore(h, form); code != http.StatusSeeOther {
			t.Fatalf("upload %d: status %d", k, code)
		}
	}
	site.mu.Lock()
	defer site.mu.Unlock()
	if n := len(site.roll.Entries); n != 1000 {
		t.Fatalf("honor roll holds %d entries after 1001 uploads, want 1000", n)
	}
	for _, e := range site.roll.Entries {
		if e.System == "sys500" {
			t.Errorf("the lowest-ranked upload is still on the roll")
		}
	}
}

// postScore uploads one score form and returns the response status.
func postScore(h http.Handler, form url.Values) int {
	req := httptest.NewRequest(http.MethodPost, "/scores", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

func TestRunBenchmarkEndpoint(t *testing.T) {
	h := New().Handler()
	// GET shows the system picker.
	_, body := get(t, h, "/run-benchmark")
	if !strings.Contains(body, "<select") || !strings.Contains(body, "cohera") {
		t.Error("run-benchmark form missing")
	}
	// POST evaluates IWIZ server-side and adds it to the Honor Roll.
	form := url.Values{"system": {"iwiz"}}
	req := httptest.NewRequest(http.MethodPost, "/run-benchmark", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("run status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "Score: 9/12") {
		t.Errorf("result page missing score: %.300s", rec.Body.String())
	}
	_, roll := get(t, h, "/honor-roll")
	if !strings.Contains(roll, "IWIZ") {
		t.Error("honor roll missing server-side run")
	}
	// Unknown systems are rejected.
	bad := url.Values{"system": {"ghost"}}
	req = httptest.NewRequest(http.MethodPost, "/run-benchmark", strings.NewReader(bad.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown system status %d", rec.Code)
	}
}
