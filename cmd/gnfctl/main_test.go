package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseFn(t *testing.T) {
	cases := []struct {
		in       string
		kind     string
		params   map[string]string
		wantErr  bool
		errMatch string
	}{
		{in: "counter", kind: "counter"},
		{
			in:     "firewall:policy=drop,rules=accept any udp",
			kind:   "firewall",
			params: map[string]string{"policy": "drop", "rules": "accept any udp"},
		},
		{in: "ratelimit:rate_bps=1000000", kind: "ratelimit", params: map[string]string{"rate_bps": "1000000"}},
		{in: "", wantErr: true, errMatch: "empty NF kind"},
		{in: ":policy=drop", wantErr: true, errMatch: "empty NF kind"},
		{in: "firewall:policy", wantErr: true, errMatch: "want k=v"},
	}
	for _, tc := range cases {
		spec, err := parseFn(0, tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseFn(%q): expected error", tc.in)
			} else if !strings.Contains(err.Error(), tc.errMatch) {
				t.Errorf("parseFn(%q): error %q does not contain %q", tc.in, err, tc.errMatch)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFn(%q): %v", tc.in, err)
			continue
		}
		if spec.Kind != tc.kind {
			t.Errorf("parseFn(%q): kind %q, want %q", tc.in, spec.Kind, tc.kind)
		}
		for k, v := range tc.params {
			if got := spec.Params[k]; got != v {
				t.Errorf("parseFn(%q): param %s=%q, want %q", tc.in, k, got, v)
			}
		}
	}
}

func TestParseFnNamesAreIndexed(t *testing.T) {
	a, err := parseFn(0, "counter")
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseFn(1, "counter")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name == b.Name {
		t.Fatalf("names must be unique within a chain: %q vs %q", a.Name, b.Name)
	}
}

// TestRunScenarioSmoke drives the run-scenario code path end to end on a
// minimal inline scenario.
func TestRunScenarioSmoke(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "smoke.json")
	spec := `{
	  "name": "smoke",
	  "seed": 1,
	  "stations": [{"id": "st-a", "cells": [{"id": "cell-a", "center": {"x": 0}, "radius": 50}]}],
	  "clients": [{"id": "c0", "at": {"x": 0}}],
	  "spec": {"clients": [{"id": "c0",
	    "chains": [{"name": "ch", "functions": [{"kind": "counter", "name": "acct"}]}]}]},
	  "expect": {"final_stations": {"c0": "st-a"}}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runScenario(path); err != nil {
		t.Fatalf("runScenario: %v", err)
	}
	if err := runScenario(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
