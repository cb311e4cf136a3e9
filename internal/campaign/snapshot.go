package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// SnapshotPrefix names campaign snapshot files: one
// BENCH_campaign_<workload>[_k<width>]_g<procs>.json per document.
const SnapshotPrefix = "BENCH_campaign_"

// SnapshotName returns the filename a document serializes to.
func SnapshotName(d *Doc) string {
	return fmt.Sprintf("%s%s_g%d.json", SnapshotPrefix, d.stem(), d.GOMAXPROCS)
}

// WriteSnapshots writes one JSON snapshot per document into dir,
// creating it if needed, and returns the written paths.
func WriteSnapshots(dir string, docs []*Doc) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, d := range docs {
		buf, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, SnapshotName(d))
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// LoadFile parses one snapshot document.
func LoadFile(path string) (*Doc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	if d.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("campaign: %s: schema version %d, this build reads %d",
			path, d.SchemaVersion, SchemaVersion)
	}
	if len(d.Cells) == 0 {
		return nil, fmt.Errorf("campaign: %s: no cells", path)
	}
	return &d, nil
}

// LoadDir loads every BENCH_campaign_*.json under dir, sorted by
// filename. It errors when none exist — a gate run against an empty
// baseline must fail loudly, not pass vacuously.
func LoadDir(dir string) ([]*Doc, error) {
	matches, err := filepath.Glob(filepath.Join(dir, SnapshotPrefix+"*.json"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("campaign: no %s*.json snapshots in %s", SnapshotPrefix, dir)
	}
	sort.Strings(matches)
	var docs []*Doc
	for _, m := range matches {
		d, err := LoadFile(m)
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}
