package sweepsched

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var fuzzFuncRe = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)

// TestFuzzTargetsListed keeps fuzz_targets.txt — the one list make fuzz
// and ci.sh run — equal to the module's fuzz targets: a func Fuzz* in any
// _test.go file must be listed, and every listed target must exist.
// Nested modules (directories with their own go.mod) are not part of
// this module's fuzz runs and are skipped.
func TestFuzzTargetsListed(t *testing.T) {
	found := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if path != "." {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFuncRe.FindAllSubmatch(src, -1) {
			found["./"+filepath.ToSlash(filepath.Dir(path))+" "+string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open("fuzz_targets.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("fuzz_targets.txt: malformed line %q, want \"<package dir> <Fuzz function>\"", line)
		}
		key := fields[0] + " " + fields[1]
		if listed[key] {
			t.Errorf("fuzz_targets.txt lists %s twice", key)
		}
		listed[key] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var missing, stale []string
	for k := range found {
		if !listed[k] {
			missing = append(missing, k)
		}
	}
	for k := range listed {
		if !found[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, k := range missing {
		t.Errorf("fuzz target %s is not in fuzz_targets.txt, so make fuzz and ci.sh never run it", k)
	}
	for _, k := range stale {
		t.Errorf("fuzz_targets.txt lists %s, which no _test.go file defines", k)
	}
	if len(found) == 0 {
		t.Fatal("found no fuzz targets at all; the scan is broken")
	}
}
