package conc_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/conc"
)

// load type-checks src as package p and builds the conc module over it.
func load(t *testing.T, src string) (*conc.Module, *analysis.PackageUnit) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	unit := &analysis.PackageUnit{Path: "p", Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info}
	mp := &analysis.ModulePass{Fset: fset, Pkgs: []*analysis.PackageUnit{unit}, Cache: map[string]any{}}
	return conc.FromPass(mp), unit
}

// fn finds the summarized function named name.
func fn(t *testing.T, m *conc.Module, name string) *conc.FuncInfo {
	t.Helper()
	for _, fi := range m.Sorted {
		if fi.Func.Name() == name {
			return fi
		}
	}
	t.Fatalf("no function %q in module", name)
	return nil
}

func TestSpawnCollection(t *testing.T) {
	m, _ := load(t, `package p

func helper() {}

func F(fnv func()) {
	go helper()
	go func() { helper() }()
	go fnv()
}
`)
	f := fn(t, m, "F")
	if len(f.Spawns) != 3 {
		t.Fatalf("got %d spawns, want 3", len(f.Spawns))
	}
	if f.Spawns[0].Callee == nil || f.Spawns[0].Callee.Func.Name() != "helper" {
		t.Errorf("spawn 0: want static callee helper, got %+v", f.Spawns[0])
	}
	if f.Spawns[1].Lit == nil {
		t.Errorf("spawn 1: want a function literal")
	}
	if f.Spawns[2].Callee != nil || f.Spawns[2].Lit != nil {
		t.Errorf("spawn 2: function-typed value must stay unresolved, got %+v", f.Spawns[2])
	}
}

func TestWGOpsAndSpawnAttribution(t *testing.T) {
	m, _ := load(t, `package p

import "sync"

func F(n int) {
	var wg sync.WaitGroup
	wg.Add(n)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}
`)
	f := fn(t, m, "F")
	if len(f.WGOps) != 3 {
		t.Fatalf("got %d WaitGroup ops, want 3: %+v", len(f.WGOps), f.WGOps)
	}
	add, done, wait := f.WGOps[0], f.WGOps[1], f.WGOps[2]
	if add.Kind != conc.WGAdd || add.InSpawn != nil {
		t.Errorf("Add op misclassified: %+v", add)
	}
	if done.Kind != conc.WGDone || done.InSpawn == nil || !done.Deferred {
		t.Errorf("Done op must be attributed to the spawned literal and marked deferred: %+v", done)
	}
	if wait.Kind != conc.WGWait || wait.InSpawn != nil {
		t.Errorf("Wait op misclassified: %+v", wait)
	}
	if add.Key != done.Key || done.Key != wait.Key {
		t.Errorf("one group, three keys: %q %q %q", add.Key, done.Key, wait.Key)
	}
	idx := m.WG(add.Key)
	if len(idx.Adds) != 1 || len(idx.Dones) != 1 || len(idx.Waits) != 1 {
		t.Errorf("module index: got %d/%d/%d adds/dones/waits, want 1/1/1",
			len(idx.Adds), len(idx.Dones), len(idx.Waits))
	}
}

func TestWGReceiverDiscrimination(t *testing.T) {
	m, _ := load(t, `package p

type ledger struct{ n int }

func (l *ledger) Add(v int) { l.n += v }
func (l *ledger) Done()     { l.n-- }
func (l *ledger) Wait()     {}

func F() {
	var l ledger
	l.Add(1)
	l.Done()
	l.Wait()
}
`)
	f := fn(t, m, "F")
	if len(f.WGOps) != 0 {
		t.Errorf("Add/Done/Wait on a non-WaitGroup receiver must not be collected: %+v", f.WGOps)
	}
}

func TestWGEscaped(t *testing.T) {
	m, _ := load(t, `package p

import "sync"

func use(w *sync.WaitGroup) { w.Done() }

func F() {
	var wg sync.WaitGroup
	wg.Add(1)
	use(&wg)
	wg.Wait()
}
`)
	f := fn(t, m, "F")
	if len(f.WGOps) == 0 {
		t.Fatal("no WaitGroup ops collected")
	}
	if !m.WGEscaped(f.WGOps[0].Key) {
		t.Errorf("&wg must mark the group escaped (key %q)", f.WGOps[0].Key)
	}
}

func TestChanOpsInSelect(t *testing.T) {
	m, _ := load(t, `package p

func F(a chan int, b chan int) {
	select {
	case a <- 1:
	case v := <-b:
		_ = v
	}
}
`)
	f := fn(t, m, "F")
	var sends, recvs int
	for _, op := range f.ChanOps {
		switch op.Kind {
		case conc.ChanSend:
			sends++
			if op.Expr != "a" {
				t.Errorf("send collected on %q, want a", op.Expr)
			}
		case conc.ChanRecv:
			recvs++
			if op.Expr != "b" {
				t.Errorf("recv collected on %q, want b", op.Expr)
			}
		}
	}
	if sends != 1 || recvs != 1 {
		t.Errorf("select comm clauses: got %d sends, %d recvs, want 1 and 1", sends, recvs)
	}
}

func TestKeyCanonicalizationAliases(t *testing.T) {
	m, _ := load(t, `package p

func F() {
	ch := make(chan int)
	dup := ch
	close(dup)
}
`)
	f := fn(t, m, "F")
	var mk, cl *conc.ChanOp
	for _, op := range f.ChanOps {
		switch op.Kind {
		case conc.ChanMake:
			mk = op
		case conc.ChanClose:
			cl = op
		}
	}
	if mk == nil || cl == nil {
		t.Fatalf("missing make or close op: %+v", f.ChanOps)
	}
	if mk.Key != cl.Key {
		t.Errorf("close through the alias must resolve to the make's key: %q vs %q", mk.Key, cl.Key)
	}
}

func TestKeyFieldChannels(t *testing.T) {
	m, _ := load(t, `package p

type S struct{ c chan int }

func New() *S { return &S{c: make(chan int)} }

func (s *S) Send() { s.c <- 1 }
`)
	mk := fn(t, m, "New").ChanOps
	snd := fn(t, m, "Send").ChanOps
	if len(mk) != 1 || len(snd) != 1 {
		t.Fatalf("ops: New=%+v Send=%+v", mk, snd)
	}
	const want = "f|p.S.c"
	if mk[0].Key != want || snd[0].Key != want {
		t.Errorf("composite-literal make and method send must share the field key %q: %q vs %q",
			want, mk[0].Key, snd[0].Key)
	}
}

func TestCanReturnFixpoint(t *testing.T) {
	m, _ := load(t, `package p

func spin() {
	for {
	}
}

func wraps() { spin() }

func bails() { panic("x") }

func fine() {}
`)
	for _, tc := range []struct {
		name              string
		canReturn, intrin bool
	}{
		{"spin", false, false},
		{"wraps", false, true}, // falls off its own end, but spin never returns
		{"bails", true, true},  // panic terminates the goroutine; not a leak
		{"fine", true, true},
	} {
		f := fn(t, m, tc.name)
		if got := f.CanReturn(); got != tc.canReturn {
			t.Errorf("%s.CanReturn() = %v, want %v", tc.name, got, tc.canReturn)
		}
		if got := f.IntrinsicReturn(); got != tc.intrin {
			t.Errorf("%s.IntrinsicReturn() = %v, want %v", tc.name, got, tc.intrin)
		}
	}
}

func TestIsQuitChan(t *testing.T) {
	empty := types.NewChan(types.SendRecv, types.NewStruct(nil, nil))
	if !conc.IsQuitChan(empty) {
		t.Error("chan struct{} is a quit channel")
	}
	ints := types.NewChan(types.SendRecv, types.Typ[types.Int])
	if conc.IsQuitChan(ints) {
		t.Error("chan int is not a quit channel")
	}
	if conc.IsQuitChan(nil) {
		t.Error("nil type is not a quit channel")
	}
}
