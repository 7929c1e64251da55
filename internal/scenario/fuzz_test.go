package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// FuzzParse feeds the scenario decoder arbitrary documents, seeded with the
// corpus. It must never panic, and a document it accepts must marshal and
// parse back to the same scenario.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		sp, err := parse(raw)
		if err != nil {
			return
		}
		out, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("marshal an accepted scenario: %v", err)
		}
		again, err := parse(out)
		if err != nil {
			t.Fatalf("an accepted scenario does not parse back: %v\n%s", err, out)
		}
		canonical(reflect.ValueOf(sp))
		canonical(reflect.ValueOf(again))
		if !reflect.DeepEqual(sp, again) {
			t.Fatalf("round trip changed the scenario:\nfirst:  %+v\nsecond: %+v", sp, again)
		}
	})
}

// canonical clears in place what JSON cannot tell apart: an empty map or
// slice (omitempty drops it, so it parses back nil) and a time's zone (the
// same instant may come back in another location).
func canonical(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			canonical(v.Elem())
		}
	case reflect.Struct:
		if t, ok := v.Interface().(time.Time); ok {
			v.Set(reflect.ValueOf(t.UTC()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				canonical(v.Field(i))
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
		}
		for i := 0; i < v.Len(); i++ {
			canonical(v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
		}
	}
}
