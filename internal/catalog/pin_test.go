package catalog

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"thalia/internal/tess"
	"thalia/internal/xsd"
)

// testbedPins holds, per source, the first 8 bytes (hex) of the sha256 of
// its HTML page, extracted XML and inferred schema, as the regular-
// expression TESS pipeline produced them.
var testbedPins = []struct{ name, page, xml, schema string }{
	{"auckland", "c25347c284550fdf", "add232bfbbbb9da9", "25263c8dbf021057"},
	{"berkeley", "105767f5e1c3b62b", "b07bc784fcdaf966", "5748ec23cffd600c"},
	{"brown", "1a7091596bcd9fe6", "26fe924a9a0bf3a7", "74fc10a4952b5813"},
	{"caltech", "3abcfd9b96f989e3", "d3257d1c9c8e08aa", "fc17020aa201f836"},
	{"cambridge", "fe34040f11698e33", "aeeeb004f28eceac", "3cedb6f4c6436e0d"},
	{"cmu", "4f8aaea50368559e", "8e286b84c87f9460", "8843e27c9a24f16f"},
	{"columbia", "ed1890ffe4df6bbd", "4cd849b37aae47e7", "94c730889292e508"},
	{"cornell", "d28f3683b218eb32", "ce231cf9de9b5c3e", "5dde5b2d01077a64"},
	{"edinburgh", "1e00ebd42a18b80f", "4507f83b9d6c3e5f", "8ccbdbd658663f06"},
	{"epfl", "b87878c169fdc617", "2869ea7f993e60fc", "078391c5fde0278e"},
	{"eth", "a595839e64f07ccd", "6e76b621c93333d9", "c7f96c8a4ff5c866"},
	{"gatech", "171ed7dcd600e0bd", "6297db68b591c327", "18e7cd4c1a7e4a2d"},
	{"helsinki", "48937d1bb99a27e6", "eaa19e8a97bd1982", "bf1d55dbedcb6fcc"},
	{"karlsruhe", "249da095f641bbf4", "68fc896df85a1b05", "acc27e3dc537395e"},
	{"kth", "06db6c6912037a7a", "5633ffb189ad439a", "a435edfe1fbc863f"},
	{"melbourne", "837513bb867e0611", "2bc21866d5ba464d", "fa66fd18fbfac852"},
	{"mit", "ac031130bc2ef0ac", "ceb469b452ac015d", "a806320ec693ffa1"},
	{"nyu", "b0deafebbee898d6", "ff7efebdaaf02292", "3fdc910d9f4c4d8d"},
	{"oxford", "ed17ec6a4efc3c26", "3685a7b964e21fa3", "14f213157fd7d62a"},
	{"princeton", "11dd5fcd1545b952", "fca7c88e0eeb9240", "414d7b91c93a6c01"},
	{"purdue", "227bbb1becfc4121", "a6133de1f35e3151", "fc75def55c55f6ba"},
	{"stanford", "bcac481d692f80b8", "af690b77925cb66d", "c25356f52c5785c9"},
	{"toronto", "e691d4c63dffb648", "0114ba0034e90214", "1e181a650b8d85ec"},
	{"tum", "f468d6920352cc57", "5feb625987c92607", "de37b34c231280d9"},
	{"ubc", "c9d32e7a96de80a8", "e34d8db1ada9a6e7", "03c5e03dc0e65012"},
	{"ucla", "35908f0753e57094", "953990349a57f341", "39738cfed5d048f9"},
	{"ucsd", "1870cb1632eb2a01", "8c3f8808a3b9b3f1", "a2d62fdfbc013247"},
	{"uiuc", "141088ea9461a805", "606f98cb254ab515", "8377060d4e17ad93"},
	{"umass", "417c46a62b655a91", "23557f8f3840619f", "a1bbd84fc0bfdc7b"},
	{"umd", "cf94352c554f5acc", "862eed61861a3bd3", "d0bd3614db1f1d6d"},
	{"umich", "9b4dd7231e774585", "6bddf4f2ab735f00", "e402a5c7bd55175f"},
	{"utexas", "192eb92cb3749fbe", "a3442467a6cae51b", "2c5dc1135cea255f"},
	{"washington", "e8e85d025a6e0542", "0720eddd3a1c2c12", "b26e39543e86ca26"},
	{"waterloo", "e5e56ca60b47576b", "ac2e73cc89e348b7", "322ebd3fca9adc95"},
	{"wisconsin", "686eff1fbef21bdc", "b449708af2734bbd", "5c1fc9ab685b4361"},
}

func shortSHA256(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// TestTestbedArtifactsPinned pins what the testbed publishes for every
// source. Rendering, extraction and inference may get faster; the page,
// document and schema they produce may not change.
func TestTestbedArtifactsPinned(t *testing.T) {
	all := All()
	if len(all) != len(testbedPins) {
		t.Fatalf("%d sources, %d pins", len(all), len(testbedPins))
	}
	for i, s := range all {
		pin := testbedPins[i]
		if s.Name != pin.name {
			t.Fatalf("source %d is %s, pin is for %s", i, s.Name, pin.name)
		}
		x, err := s.XML()
		if err != nil {
			t.Fatal(err)
		}
		sch, err := s.Schema()
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct{ what, sum, want string }{
			{"page", shortSHA256(s.Page()), pin.page},
			{"XML", shortSHA256(x), pin.xml},
			{"schema", shortSHA256(sch.Encode()), pin.schema},
		} {
			if got.sum != got.want {
				t.Errorf("%s %s: sha256 %s…, want %s…", s.Name, got.what, got.sum, got.want)
			}
		}
	}
}

// materializeAllocBudget caps the allocations of one render→extract→infer
// pass over every source. A pass takes about 29600, with markers matched
// by strings.Index, escapers built once and StripTags scanning in one pass;
// it took about 144000 when each field compiled its regular expressions
// and built its replacers, so a per-call compile added back fails.
const materializeAllocBudget = 34000

func TestMaterializeAllocationBudget(t *testing.T) {
	sources := All()
	allocs := testing.AllocsPerRun(3, func() {
		for _, s := range sources {
			doc, err := tess.Extract(s.Wrapper(), s.RenderHTML(s))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := xsd.Infer(s.Name, doc); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%.0f allocations per pass over %d sources", allocs, len(sources))
	if allocs > materializeAllocBudget {
		t.Errorf("%.0f allocations per pass, budget %d", allocs, materializeAllocBudget)
	}
}
