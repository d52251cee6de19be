package bench

import (
	"strings"
	"testing"
)

func TestRunTinySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("generates documents")
	}
	dir := t.TempDir()
	rows, err := Run(Config{
		SizesMB: []int{1},
		Queries: []string{"q1", "q20"},
		Modes:   []Mode{ModeFluX, ModeNaive},
		Seed:    1,
		WorkDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Skipped {
			t.Errorf("row %+v skipped unexpectedly", r)
		}
		if r.Output == 0 {
			t.Errorf("%s/%s produced no output", r.Query, r.Mode)
		}
		if r.Mode == ModeNaive && r.Buffer < r.Bytes/2 {
			t.Errorf("naive buffered %d of %d bytes; accounting broken", r.Buffer, r.Bytes)
		}
		if r.Query == "q1" && r.Mode == ModeFluX && r.Buffer != 0 {
			t.Errorf("flux q1 buffered %d bytes, want 0", r.Buffer)
		}
	}
	table := FormatTable(rows, []Mode{ModeFluX, ModeNaive})
	for _, want := range []string{"q1", "q20", "flux (time/mem)", "naive (time/mem)", "flux index"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestRunSkipsBaselinesAboveLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("generates documents")
	}
	rows, err := Run(Config{
		SizesMB:       []int{1},
		Queries:       []string{"q13"},
		Modes:         []Mode{ModeFluX, ModeNaive},
		Seed:          1,
		MaxBaselineMB: 0, // unlimited
		WorkDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rows
	rows2, err := Run(Config{
		SizesMB:       []int{2},
		Queries:       []string{"q13"},
		Modes:         []Mode{ModeFluX, ModeNaive},
		Seed:          1,
		MaxBaselineMB: 1,
		WorkDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var naiveSkipped, fluxSkipped bool
	for _, r := range rows2 {
		if r.Mode == ModeNaive && r.Skipped {
			naiveSkipped = true
		}
		if r.Mode == ModeFluX && r.Skipped {
			fluxSkipped = true
		}
	}
	if !naiveSkipped {
		t.Error("naive baseline not skipped above MaxBaselineMB")
	}
	if fluxSkipped {
		t.Error("flux engine must never be skipped")
	}
	table := FormatTable(rows2, []Mode{ModeFluX, ModeNaive})
	if !strings.Contains(table, "skipped") {
		t.Errorf("table should render skipped cells:\n%s", table)
	}
}

func TestRunAblationMode(t *testing.T) {
	if testing.Short() {
		t.Skip("generates documents")
	}
	rows, err := Run(Config{
		SizesMB: []int{1},
		Queries: []string{"q20"},
		Modes:   []Mode{ModeFluX, ModeFluXNoSchema},
		Seed:    1,
		WorkDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sched, unsched int64
	for _, r := range rows {
		switch r.Mode {
		case ModeFluX:
			sched = r.Buffer
		case ModeFluXNoSchema:
			unsched = r.Buffer
		}
	}
	// Scheduling buffers one person; the fallback buffers every selected
	// person until end of stream.
	if sched == 0 || unsched == 0 || sched*10 > unsched {
		t.Errorf("ablation shape wrong: scheduled %d vs unscheduled %d", sched, unsched)
	}
}

// TestRunMigrateRows: the migration-under-load rows stream the same
// fixed query set with and without a live migration racing it, satisfy
// the CheckMigrate invariant (identical output and tokens), and the
// live run really moves the document.
func TestRunMigrateRows(t *testing.T) {
	if testing.Short() {
		t.Skip("generates documents and spins up HTTP servers")
	}
	rows, err := Run(Config{
		SizesMB: []int{1},
		Queries: []string{"q1", "q20"},
		Modes:   []Mode{ModeFluX},
		Seed:    1,
		WorkDir: t.TempDir(),
		Migrate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var static, live *Row
	for i := range rows {
		switch rows[i].Mode {
		case ModeMigrateStatic:
			static = &rows[i]
		case ModeMigrateLive:
			live = &rows[i]
		}
	}
	if static == nil || live == nil {
		t.Fatalf("missing migrate rows in %+v", rows)
	}
	if static.Output == 0 || static.Tokens == 0 {
		t.Fatalf("static row measured nothing: %+v", *static)
	}
	if live.Output != static.Output || live.Tokens != static.Tokens {
		t.Fatalf("migration changed the stream: static %+v, live %+v", *static, *live)
	}
	snapRows := []SnapshotRow{
		{Query: MigrateQueryName, SizeMB: 1, Mode: ModeMigrateStatic, OutputBytes: static.Output, TokensDelivered: static.Tokens},
		{Query: MigrateQueryName, SizeMB: 1, Mode: ModeMigrateLive, OutputBytes: live.Output, TokensDelivered: live.Tokens},
	}
	if err := CheckMigrate(&Snapshot{Rows: snapRows}); err != nil {
		t.Fatalf("CheckMigrate on fresh rows: %v", err)
	}
	if err := CheckMigrate(&Snapshot{Rows: []SnapshotRow{
		{Query: MigrateQueryName, SizeMB: 1, Mode: ModeMigrateStatic, OutputBytes: 10, TokensDelivered: 5},
		{Query: MigrateQueryName, SizeMB: 1, Mode: ModeMigrateLive, OutputBytes: 9, TokensDelivered: 5},
	}}); err == nil {
		t.Fatal("CheckMigrate accepted diverging output")
	}
}

// TestRunStreamRows: the streaming-ingestion rows run the same query
// set as a static shared scan and as standing subscriptions over a
// chunked replay, produce identical output (runStream enforces digest
// equality internally), and record first-result latencies on the
// replay row.
func TestRunStreamRows(t *testing.T) {
	if testing.Short() {
		t.Skip("generates documents")
	}
	rows, err := Run(Config{
		SizesMB: []int{1},
		Queries: []string{"q1", "q8", "q20"},
		Modes:   []Mode{ModeFluX},
		Seed:    1,
		WorkDir: t.TempDir(),
		Stream:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var static, replay *Row
	for i := range rows {
		switch rows[i].Mode {
		case ModeStreamStatic:
			static = &rows[i]
		case ModeStreamReplay:
			replay = &rows[i]
		}
	}
	if static == nil || replay == nil {
		t.Fatalf("missing stream rows in %+v", rows)
	}
	if static.Output == 0 {
		t.Fatalf("static row measured nothing: %+v", *static)
	}
	if replay.Output != static.Output {
		t.Fatalf("chunked replay changed the output: static %+v, replay %+v", *static, *replay)
	}
	if replay.P50 <= 0 || replay.P99 < replay.P50 {
		t.Fatalf("replay first-result percentiles malformed: %+v", *replay)
	}
	snapRows := []SnapshotRow{
		{Query: StreamQueryName, SizeMB: 1, Mode: ModeStreamStatic, OutputBytes: static.Output},
		{Query: StreamQueryName, SizeMB: 1, Mode: ModeStreamReplay, OutputBytes: replay.Output},
	}
	if err := CheckStreamEquivalence(&Snapshot{Rows: snapRows}); err != nil {
		t.Fatalf("CheckStreamEquivalence on fresh rows: %v", err)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		0:          "0",
		702:        "702",
		4660:       "4.66k",
		46600:      "46.60k",
		3_160_000:  "3.16M",
		32_250_000: "32.25M",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestRunServedRows: the serving-tier rows measure the same query set
// through one worker and through a 2-shard router, and satisfy the
// CheckSharded invariant — identical output and tokens either way.
func TestRunServedRows(t *testing.T) {
	if testing.Short() {
		t.Skip("generates documents and spins up HTTP servers")
	}
	rows, err := Run(Config{
		SizesMB: []int{1},
		Queries: []string{"q1", "q20"},
		Modes:   []Mode{ModeFluX},
		Seed:    1,
		WorkDir: t.TempDir(),
		Sharded: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var single, sharded *Row
	for i := range rows {
		switch rows[i].Mode {
		case ModeServedSingle:
			single = &rows[i]
		case ModeServedSharded:
			sharded = &rows[i]
		}
	}
	if single == nil || sharded == nil {
		t.Fatalf("missing served rows in %+v", rows)
	}
	if single.Output == 0 || single.Tokens == 0 {
		t.Fatalf("single row measured nothing: %+v", *single)
	}
	if sharded.Output != single.Output || sharded.Tokens != single.Tokens {
		t.Fatalf("sharded row diverged: single %+v, sharded %+v", *single, *sharded)
	}
	snapRows := []SnapshotRow{
		{Query: ServedQueryName, SizeMB: 1, Mode: ModeServedSingle, OutputBytes: single.Output, TokensDelivered: single.Tokens},
		{Query: ServedQueryName, SizeMB: 1, Mode: ModeServedSharded, OutputBytes: sharded.Output, TokensDelivered: sharded.Tokens},
	}
	if err := CheckSharded(&Snapshot{Rows: snapRows}); err != nil {
		t.Fatalf("CheckSharded on fresh rows: %v", err)
	}
}
