// Two gates no session here has a CI runner for, so tier-1 holds them: the
// workflow file stays YAML where it broke before — a step name with ": " in it
// must be quoted, or everything after the colon is a mapping and the file does
// not parse — and every Go file outside testdata is gofmt-clean.
package repro_test

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	stepName = regexp.MustCompile(`^\s*- name: (.*)$`)
	stepKey  = regexp.MustCompile(`^\s+(run|uses|with|if|env|id|shell|working-directory|timeout-minutes|continue-on-error):`)
)

// TestCIStepNamesAreOneLine: every "- name:" of the workflow is one line — the
// next line is a key of the step, not a continuation of the name — and a name
// that is not quoted as a whole holds no ": " and no " #".
func TestCIStepNamesAreOneLine(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	steps := 0
	for i, line := range lines {
		m := stepName.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		steps++
		name := m[1]
		quoted := len(name) >= 2 && name[0] == '"' && name[len(name)-1] == '"' && !strings.Contains(name[1:len(name)-1], `"`)
		if !quoted && (strings.Contains(name, ": ") || strings.Contains(name, " #") || strings.HasSuffix(name, ":") || strings.ContainsAny(name[:1], `"'&*!|>%@`+"`")) {
			t.Errorf("ci.yml:%d: step name needs quoting as a whole: %s", i+1, name)
		}
		if i+1 >= len(lines) || !stepKey.MatchString(lines[i+1]) {
			t.Errorf("ci.yml:%d: step name is not one line: the next line is no key of the step", i+1)
		}
	}
	if steps < 10 {
		t.Fatalf("found %d step names in ci.yml; the pattern no longer matches the file", steps)
	}
}

// TestGoFilesAreFormatted: go/format leaves every .go file outside testdata
// as it is (what gofmt -l checks).
func TestGoFilesAreFormatted(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		formatted, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(src, formatted) {
			t.Errorf("%s is not gofmt-clean", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
