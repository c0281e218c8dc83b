package machine

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"paper":      PaperCluster(),
		"smp":        SingleSMP(),
		"sequential": Sequential(),
		"modern":     ModernCluster(),
	} {
		t.Run(name, func(t *testing.T) {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("preset invalid: %v", err)
			}
		})
	}
}

func TestPresetGeometry(t *testing.T) {
	p := PaperCluster()
	if p.Nodes != 16 || p.ThreadsPerNode != 16 || p.TotalThreads() != 256 {
		t.Fatalf("paper cluster geometry wrong: %+v", p)
	}
	if s := SingleSMP(); s.Nodes != 1 || s.ThreadsPerNode != 16 {
		t.Fatalf("SMP geometry wrong: %+v", s)
	}
	if q := Sequential(); q.TotalThreads() != 1 {
		t.Fatalf("sequential geometry wrong: %+v", q)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := map[string]func(*Config){
		"zero nodes":       func(c *Config) { c.Nodes = 0 },
		"zero threads":     func(c *Config) { c.ThreadsPerNode = 0 },
		"negative latency": func(c *Config) { c.NetLatency = -1 },
		"zero bandwidth":   func(c *Config) { c.NetBandwidth = 0 },
		"zero membw":       func(c *Config) { c.MemBandwidth = 0 },
		"zero cache":       func(c *Config) { c.CacheBytes = 0 },
		"zero line":        func(c *Config) { c.CacheLineBytes = 0 },
		"negative op":      func(c *Config) { c.OpCost = -1 },
		"negative msg":     func(c *Config) { c.MsgOverhead = -1 },
		"negative smallop": func(c *Config) { c.SmallOpOverhead = -1 },
		"negative a2a":     func(c *Config) { c.A2AThreshold = -1 },
		"linear < 1":       func(c *Config) { c.LinearSchedulePenalty = 0.5 },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			cfg := PaperCluster()
			mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestPaperRatios(t *testing.T) {
	// The calibration the paper's §III analysis rests on.
	p := PaperCluster()
	if p.NetLatency/p.MemLatency < 10 {
		t.Fatalf("network/memory latency ratio %.1f too small", p.NetLatency/p.MemLatency)
	}
	if p.SmallOpOverhead <= p.MsgOverhead {
		t.Fatal("per-element op overhead should exceed amortized bulk overhead")
	}
}

func TestString(t *testing.T) {
	s := PaperCluster()
	str := s.String()
	if !strings.Contains(str, "p=16") || !strings.Contains(str, "t=16") {
		t.Fatalf("String() missing geometry: %s", str)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	cfg := PaperCluster()
	cfg.Nodes = 7
	cfg.NetLatency = 1234
	var buf strings.Builder
	if err := WriteJSON(&buf, &cfg); err != nil {
		t.Fatal(err)
	}
	got, err := readJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("round trip changed config:\n got %+v\nwant %+v", got, cfg)
	}
}

func TestJSONPartialOverridesPreset(t *testing.T) {
	got, err := readJSON(strings.NewReader(`{"Nodes": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != 3 {
		t.Fatalf("override lost: %d", got.Nodes)
	}
	if got.NetLatency != PaperCluster().NetLatency {
		t.Fatal("unnamed field did not keep the preset value")
	}
}

func TestJSONRejectsBad(t *testing.T) {
	for name, text := range map[string]string{
		"unknown field": `{"Bogus": 1}`,
		"invalid value": `{"Nodes": 0}`,
		"not json":      `nope`,
	} {
		if _, err := readJSON(strings.NewReader(text)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestJSONFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/m.json"
	cfg := ModernCluster()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, &cfg); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatal("file round trip changed config")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// WriteJSON encodes cfg as indented JSON.
func WriteJSON(w io.Writer, cfg *Config) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cfg)
}
