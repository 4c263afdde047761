package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles the test binary as the CLI when the re-exec marker is
// set, so flag-validation behaviour (stderr output, exit codes) can be
// tested without building a separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("PARACRASH_CLI_UNDER_TEST") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-executes the test binary as the experiments CLI with args and
// returns its exit code and combined stderr.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PARACRASH_CLI_UNDER_TEST=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if exitErr, ok := err.(*exec.ExitError); ok {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatalf("running CLI: %v", err)
	}
	return code, stderr.String()
}

func TestParseServerCounts(t *testing.T) {
	good := map[string][]int{
		"4":          {4},
		"4,6,8":      {4, 6, 8},
		" 4 , 16 ":   {4, 16},
		"2,32,2,100": {2, 32, 2, 100},
	}
	for in, want := range good {
		got, err := parseServerCounts(in)
		if err != nil {
			t.Errorf("parseServerCounts(%q): unexpected error %v", in, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("parseServerCounts(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("parseServerCounts(%q) = %v, want %v", in, got, want)
			}
		}
	}
	bad := []string{"", "4,", ",4", "4,bogus", "abc", "4,1", "0", "-3", "4,6,one"}
	for _, in := range bad {
		if got, err := parseServerCounts(in); err == nil {
			t.Errorf("parseServerCounts(%q) = %v, want error", in, got)
		}
	}
}

// TestCLIFlagValidation checks that invalid flags reach stderr with a
// non-zero exit instead of being silently dropped (fig11's -servers used
// to skip malformed counts without a word).
func TestCLIFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"bad fig11 servers", []string{"-exp", "fig11", "-servers", "4,bogus"}, "bad server count"},
		{"fig11 servers below range", []string{"-exp", "fig11", "-servers", "4,1"}, "out of range"},
		{"unknown experiment", []string{"-exp", "nope"}, "unknown experiment"},
		{"unknown flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
		{"positional args", []string{"-exp", "fig5", "stray"}, "unexpected arguments"},
		{"negative seeds", []string{"-exp", "fuzz", "-seeds", "-1"}, "-seeds must be >= 0"},
		{"negative enum-ops", []string{"-exp", "fuzz", "-enum-ops", "-2"}, "-enum-ops must be >= 0"},
		{"negative retries", []string{"-exp", "fuzz", "-retries", "-1"}, "-retries must be >= 0"},
		{"negative retry backoff", []string{"-exp", "fuzz", "-retry-backoff", "-1ms"}, "-retry-backoff must be >= 0"},
		{"malformed retry backoff", []string{"-exp", "fuzz", "-retry-backoff", "soon"}, "invalid value"},
		{"fault rate above one", []string{"-exp", "fuzz", "-fault-rate", "2"}, "-fault-rate must be in [0,1]"},
		{"negative fault rate", []string{"-exp", "fuzz", "-fault-rate", "-0.5"}, "-fault-rate must be in [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := runCLI(t, tc.args...)
			if code == 0 {
				t.Fatalf("exit code 0, want non-zero; stderr: %s", stderr)
			}
			if !strings.Contains(stderr, tc.wantMsg) {
				t.Fatalf("stderr %q does not contain %q", stderr, tc.wantMsg)
			}
		})
	}
}
