package ufsclust

import (
	"reflect"
	"strings"
	"testing"

	"ufsclust/internal/prefetch"
	"ufsclust/internal/vec"
	"ufsclust/internal/vol"
	"ufsclust/internal/wal"
)

// axisOptions turns one command-line axis name into the option the
// tools apply, the way simstat, iobench and faultlab do: the package
// that owns the mode parses the name, and a nil result keeps the
// machine default (no option).
var axisOptions = map[string]func(name string) (Option, bool){
	"ra": func(name string) (Option, bool) {
		pol, ok := prefetch.ParsePolicy(name)
		if pol == nil {
			return nil, ok
		}
		return WithReadAhead(pol()), ok
	},
	"vec": func(name string) (Option, bool) {
		s, ok := vec.ParseStrategy(name)
		if s == nil {
			return nil, ok
		}
		return WithVecStrategy(s), ok
	},
	"journal": func(name string) (Option, bool) {
		cfg, ok := wal.ParseMode(name)
		if cfg == nil {
			return nil, ok
		}
		return WithJournal(*cfg), ok
	},
	"vol": func(name string) (Option, bool) {
		lvl, ok := vol.ParseLevel(name)
		return WithVolume(vol.Config{Level: lvl, Members: 2}), ok
	},
}

// TestAxisNames pins every axis name to the Options it produces on top
// of run A, and checks that every axis rejects an unknown name.
func TestAxisNames(t *testing.T) {
	for _, c := range []struct {
		axis, name string
		want       func(o *Options) // nil: the name is rejected
	}{
		{"ra", "fixed", func(o *Options) {}},
		{"ra", "adaptive", func(o *Options) { o.Engine.Prefetch = prefetch.NewAdaptive(prefetch.AdaptiveConfig{}) }},
		{"ra", "Adaptive", func(o *Options) { o.Engine.Prefetch = prefetch.NewAdaptive(prefetch.AdaptiveConfig{}) }},
		// prefetch.Off() is a nil policy, so ReadAhead=false is the only
		// "off" signal the engine sees.
		{"ra", "off", func(o *Options) { o.Engine.ReadAhead = false }},
		{"ra", "bogus", nil},
		{"vec", "auto", func(o *Options) {}},
		{"vec", "naive", func(o *Options) { o.Engine.Vec = vec.UseNaive() }},
		{"vec", "sieve", func(o *Options) { o.Engine.Vec = vec.UseSieve() }},
		{"vec", "list", func(o *Options) { o.Engine.Vec = vec.UseList() }},
		{"vec", "bogus", nil},
		{"journal", "off", func(o *Options) {}},
		{"journal", "wal", func(o *Options) { o.Journal = &wal.Config{} }},
		{"journal", "wal-clustered", func(o *Options) { o.Journal = &wal.Config{Clustered: true} }},
		{"journal", "bogus", nil},
		{"vol", "concat", func(o *Options) { o.Volume = &vol.Config{Level: vol.Concat, Members: 2} }},
		{"vol", "raid0", func(o *Options) { o.Volume = &vol.Config{Level: vol.RAID0, Members: 2} }},
		{"vol", "stripe", func(o *Options) { o.Volume = &vol.Config{Level: vol.RAID0, Members: 2} }},
		{"vol", "raid1", func(o *Options) { o.Volume = &vol.Config{Level: vol.RAID1, Members: 2} }},
		{"vol", "mirror", func(o *Options) { o.Volume = &vol.Config{Level: vol.RAID1, Members: 2} }},
		{"vol", "raid5", func(o *Options) { o.Volume = &vol.Config{Level: vol.RAID5, Members: 2} }},
		{"vol", "bogus", nil},
	} {
		t.Run(c.axis+"/"+c.name, func(t *testing.T) {
			opt, ok := axisOptions[c.axis](c.name)
			if c.want == nil {
				if ok {
					t.Fatalf("%s accepted unknown name %q", c.axis, c.name)
				}
				return
			}
			if !ok {
				t.Fatalf("%s rejected %q", c.axis, c.name)
			}
			got, want := RunA().Options(), RunA().Options()
			if opt != nil {
				opt(&got)
			}
			c.want(&want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %q:\ngot:  %+v\nwant: %+v", c.axis, c.name, got, want)
			}
		})
	}
}

// TestImageOptionsMustFit checks that image and recovery options that
// cannot apply make NewMachine fail instead of booting a freshly
// formatted machine.
func TestImageOptionsMustFit(t *testing.T) {
	member := volMember()
	mirror := WithVolume(vol.Config{Level: vol.RAID1, Members: 2})
	m, err := New(RunA(), WithDiskParams(member), mirror)
	if err != nil {
		t.Fatal(err)
	}
	imgs := m.Vol.Snapshot()
	m.Close()
	m, err = New(RunA(), WithDiskParams(member))
	if err != nil {
		t.Fatal(err)
	}
	img := m.Disk.Snapshot()
	m.Close()

	for _, c := range []struct {
		name    string
		opts    []Option
		wantErr string // "" = must boot
	}{
		{"recovery with no images", []Option{WithRecovery()}, "no images"},
		{"one image on a volume", []Option{mirror, WithImages(img)}, "member images"},
		{"member images on a bare disk", []Option{WithImages(imgs...)}, "bare-disk"},
		{"one image on a bare disk", []Option{WithImages(img)}, ""},
		{"member images on a volume", []Option{mirror, WithRecovery(imgs...)}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(RunA(), append([]Option{WithDiskParams(member)}, c.opts...)...)
			if err == nil {
				m.Close()
			}
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("boot failed: %v", err)
			case c.wantErr != "" && err == nil:
				t.Fatal("booted; want an error")
			case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}
