package machine

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readJSON decodes a configuration, applying fields over the paper-cluster
// preset so partial files only override what they name, then validates.
func readJSON(r io.Reader) (Config, error) {
	cfg := PaperCluster()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("machine: decoding config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// LoadFile reads a configuration from a JSON file.
func LoadFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return readJSON(f)
}
