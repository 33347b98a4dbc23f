package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"nvmcp/internal/sim"
)

// emitSiteAttrs are the attribute sets the bus's emit sites publish, in map
// form, with representative values; the rest are adversarial values for the
// JSON escaper and the decimal canonicalizer.
var emitSiteAttrs = []map[string]string{
	{"seq": "1"},               // chunk_dirty, chunk_redirtied, pfs_drain
	{"seq": "3", "inval": "1"}, // chunk_staged, single-version overwrite
	{"round": "0"},             // ckpt_begin
	{"round": "2", "copied": "4", "skipped": "1", "dur_us": "2000000"}, // ckpt_commit
	{"seq": "5", "version": "2"},                                       // chunk_commit
	{"action": "salvage", "seq": "1"},                                  // checksum_error
	{"source": "local", "seq": "1", "version": "1", "reseq": "2"},      // restore
	{"source": "remote"},                                               // restore (adopt)
	{"raced": "true", "seq": "4"},                                      // precopy_copy
	{"reason": "link-down", "attempt": "2"},                            // ship_retry
	{"from": "1", "to": "2"},                                           // buddy_failover
	{"buddy": "1", "seq": "3"},                                         // chunk_shipped, remote_chunk_commit
	{"buddy": "12"},                                                    // remote_commit
	{"placement": "buddy/spread", "fallback": "true"},                  // engine_warn (placement)
	{"err": "erasure: group 0: node 3 failed", "group": "0"},           // helper_sleep (parity)
	{"round": "1", "group": "0"},                                       // remote_commit (parity)
	{"reason": "cancelled by operator"},                                // abort
	{"code": "shard-fallback", "msg": `remote policy "erasure" spans node groups`},
	{"code": "negative-delay", "msg": "Schedule(-1ms) clamped to 0"},
	{"tier": "remote", "seq": "3"},               // chunk_recovered
	{"mttr_us": "1500000"},                       // repair_done
	{"iter": "3"},                                // iteration, remote_trigger
	{"kind": "soft", "reason": "ranks-not-live"}, // failure_skipped
	{"kind": "zone-outage", "cause": "zone-outage@2s/p0/z1", "hard": "true", "victims": "0,1,2"},
	{"torn": "false"}, // nvm_corrupt
	{"seq": "2", "version": "1", "torn": "true", "cause": "nvm-corrupt@1s/node1"},
	{"factor": "0.25", "secs": "5", "cause": "link-flap@3s/node2"},
	{"kind": "hard", "avoid": "3,4"},                                // replan
	{"resume_iter": "4", "kind": "hard", "cause": "hard@10s/node0"}, // recovery
	{},
	{"<k>": "a&b>c", "\u2028": "x\u2029y", "bad": "\xff\xfe", "": "", "ctl": "\b\f\n\r\t\x01\x7f\"\\"},
	{"neg": "-42", "max": "9223372036854775807", "min": "-9223372036854775808",
		"over": "9223372036854775808", "lead": "007", "negzero": "-0", "plus": "+5", "zero": "0"},
}

// encodePairs packs a map as key NUL value NUL ... for the fuzz corpus.
func encodePairs(m map[string]string) string {
	var b strings.Builder
	for k, v := range m {
		b.WriteString(k + "\x00" + v + "\x00")
	}
	return b.String()
}

// decodePairs unpacks encodePairs' form; a later duplicate key wins, and a
// trailing key without a value maps to "".
func decodePairs(s string) map[string]string {
	m := map[string]string{}
	f := strings.Split(s, "\x00")
	for i := 0; i < len(f); i += 2 {
		v := ""
		if i+1 < len(f) {
			v = f[i+1]
		}
		m[f[i]] = v
	}
	return m
}

func attrsMap(as Attrs) map[string]string {
	m := make(map[string]string, len(as))
	for _, a := range as {
		m[a.Key] = a.value()
	}
	return m
}

// FuzzAttrsJSON holds typed attributes to the JSON the map-valued ones
// wrote: for any set of keys and values, Attrs marshals exactly as
// encoding/json marshals the equivalent map[string]string, whether the
// values are kept as strings or canonical decimals become integers, and
// map → Attrs → map round-trips, through the adapter, through JSON, and
// through the event log.
//
//	go test ./internal/obs -run '^$' -fuzz FuzzAttrsJSON -fuzztime 60s
func FuzzAttrsJSON(f *testing.F) {
	for _, m := range emitSiteAttrs {
		f.Add(encodePairs(m))
	}
	f.Fuzz(func(t *testing.T, data string) {
		m := decodePairs(data)
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		typed := appendMapAttrs(nil, m)
		strs := make(Attrs, 0, len(m))
		for k, v := range m {
			strs = append(strs, Str(k, v))
		}
		for _, as := range []Attrs{typed, strs} {
			raw, err := as.MarshalJSON()
			if err != nil || !bytes.Equal(raw, want) {
				t.Fatalf("MarshalJSON = %s, %v; encoding/json writes %s", raw, err, want)
			}
			enc, err := json.Marshal(as)
			if err != nil || !bytes.Equal(enc, want) {
				t.Fatalf("json.Marshal = %s, %v; want %s", enc, err, want)
			}
		}
		if got := attrsMap(typed); !reflect.DeepEqual(got, m) {
			t.Fatalf("adapter round trip = %q, want %q", got, m)
		}
		// JSON replaces invalid UTF-8, so the map's own JSON round trip is
		// the reference.
		var back Attrs
		var mapBack map[string]string
		if err := json.Unmarshal(want, &mapBack); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &back); err != nil || !reflect.DeepEqual(attrsMap(back), mapBack) {
			t.Fatalf("JSON round trip = %q, %v; want %q", attrsMap(back), err, mapBack)
		}

		o := New(sim.NewEnv())
		o.Recorder(1, "rank0").Emit(EvChunkStaged, "c", 8, m)
		evs := o.Events()
		if len(evs) != 1 || !reflect.DeepEqual(attrsMap(evs[0].Attrs), m) {
			t.Fatalf("log round trip = %+v, want attrs %q", evs, m)
		}
		var line bytes.Buffer
		if err := o.WriteEventsJSONL(&line); err != nil {
			t.Fatal(err)
		}
		wantLine, err := json.Marshal(struct {
			TUS   int64             `json:"t_us"`
			Type  Type              `json:"type"`
			Node  int               `json:"node"`
			Actor string            `json:"actor,omitempty"`
			Chunk string            `json:"chunk,omitempty"`
			Bytes int64             `json:"bytes,omitempty"`
			Attrs map[string]string `json:"attrs,omitempty"`
		}{0, EvChunkStaged, 1, "rank0", "c", 8, m})
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.TrimSuffix(line.Bytes(), []byte("\n")); !bytes.Equal(got, wantLine) {
			t.Fatalf("JSONL line = %s, want %s", got, wantLine)
		}
	})
}

func TestAttrsAccessors(t *testing.T) {
	as := Attrs{Int("seq", 7), Str("source", "local"), Bool("raced", true), Int("seq", 9)}
	if v, ok := as.Int("seq"); !ok || v != 9 {
		t.Fatalf("Int(seq) = %d, %v; want the last entry, 9", v, ok)
	}
	if _, ok := as.Int("source"); ok {
		t.Fatal("Int reads a string attribute")
	}
	if _, ok := as.Int("absent"); ok {
		t.Fatal("Int reads an absent attribute")
	}
	if as.Str("source") != "local" || as.Str("raced") != "true" || as.Str("seq") != "9" || as.Str("absent") != "" {
		t.Fatalf("Str = %q %q %q %q", as.Str("source"), as.Str("raced"), as.Str("seq"), as.Str("absent"))
	}
	raw, err := json.Marshal(as)
	if err != nil || string(raw) != `{"raced":"true","seq":"9","source":"local"}` {
		t.Fatalf("duplicate keys marshal as %s, %v", raw, err)
	}
	if raw, _ := json.Marshal(Attrs(nil)); string(raw) != "null" {
		t.Fatalf("nil Attrs = %s", raw)
	}
}
