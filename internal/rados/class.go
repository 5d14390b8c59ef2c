package rados

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/script"
	"repro/internal/types"
)

// The class runtime executes object interfaces next to the data
// (Section 4.2). Two kinds exist, exactly as in Ceph-plus-Malacology:
//
//   - native classes: compiled-in Go methods (Ceph's C++ classes);
//   - script classes: interpreted methods installed at runtime through
//     the monitor's Service Metadata interface and propagated in the
//     OSDMap — no daemon restart, an order of magnitude less code.
//
// Methods run atomically per object: they execute under the target
// object's slot lock (script classes on the live object with an undo
// log; native classes on a clone swapped in only on success), so a
// method never observes or publishes a half-applied state — and never
// blocks operations on other objects in the same PG.

// ClassCtx is the execution context handed to a class method: the
// target object plus the method input. Script-class mutations are
// journaled in an undo log so a failed method rolls back in O(touched
// state) — critical for hot objects like ZLog stripe objects, whose
// omaps grow without bound. (Native classes run on a clone instead;
// they are compiled-in and rare.)
type ClassCtx struct {
	Obj   *Object
	Input []byte

	mutated   bool
	undo      []func()
	savedData bool
	savedOmap map[string]bool
	savedXatt map[string]bool
}

// saveData captures the bytestream once per call.
func (c *ClassCtx) saveData() {
	if c.savedData {
		return
	}
	c.savedData = true
	old := c.Obj.Data
	c.undo = append(c.undo, func() { c.Obj.Data = old })
}

// saveOmap captures one omap key once per call.
func (c *ClassCtx) saveOmap(k string) {
	if c.savedOmap == nil {
		c.savedOmap = make(map[string]bool)
	}
	if c.savedOmap[k] {
		return
	}
	c.savedOmap[k] = true
	old, existed := c.Obj.Omap[k]
	c.undo = append(c.undo, func() {
		if existed {
			c.Obj.Omap[k] = old
		} else {
			delete(c.Obj.Omap, k)
		}
	})
}

// saveXattr captures one xattr once per call.
func (c *ClassCtx) saveXattr(k string) {
	if c.savedXatt == nil {
		c.savedXatt = make(map[string]bool)
	}
	if c.savedXatt[k] {
		return
	}
	c.savedXatt[k] = true
	old, existed := c.Obj.Xattrs[k]
	c.undo = append(c.undo, func() {
		if existed {
			c.Obj.Xattrs[k] = old
		} else {
			delete(c.Obj.Xattrs, k)
		}
	})
}

// rollback undoes every recorded mutation, newest first.
func (c *ClassCtx) rollback() {
	for i := len(c.undo) - 1; i >= 0; i-- {
		c.undo[i]()
	}
	c.undo = nil
	c.mutated = false
}

// NativeMethod is a compiled-in class method.
type NativeMethod func(ctx *ClassCtx) ([]byte, ResultCode)

// NativeClass groups named methods with a Table-1-style category.
type NativeClass struct {
	Name     string
	Category string
	Methods  map[string]NativeMethod
}

// maxCompiledClasses bounds the per-OSD compiled cache; eviction is
// FIFO, which is plenty for the handful of classes a cluster carries.
const maxCompiledClasses = 128

// compiledClass is one cached compilation plus a pool of warmed-up
// execution states for it.
type compiledClass struct {
	chunk *script.CompiledChunk
	pool  sync.Pool // of *classVM
}

// classVM is a reusable execution state for one compiled class: an
// interpreter (globals survive between calls — see DESIGN.md on the
// persistence nuance) and the pre-built cls binding table.
type classVM struct {
	ip      *script.Interp
	binding *clsBinding
}

// classRuntime resolves and executes class calls for one OSD.
type classRuntime struct {
	mu     sync.Mutex
	native map[string]*NativeClass
	// compiled caches bytecode keyed by the script's content hash: a
	// re-register under the same name with different source is a
	// different key, so stale code can never be served.
	compiled  map[[32]byte]*compiledClass
	hashOrder [][32]byte // FIFO eviction order for compiled
}

func newClassRuntime() *classRuntime {
	rt := &classRuntime{
		native:   make(map[string]*NativeClass),
		compiled: make(map[[32]byte]*compiledClass),
	}
	for _, c := range BuiltinClasses() {
		rt.native[c.Name] = c
	}
	return rt
}

// isNative reports whether a compiled-in class with this name exists.
func (rt *classRuntime) isNative(cls string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, ok := rt.native[cls]
	return ok
}

// callNative executes a native method if the class exists; found=false
// defers to script classes.
func (rt *classRuntime) callNative(cls, method string, ctx *ClassCtx) (out []byte, rc ResultCode, found bool) {
	rt.mu.Lock()
	c, ok := rt.native[cls]
	rt.mu.Unlock()
	if !ok {
		return nil, 0, false
	}
	m, ok := c.Methods[method]
	if !ok {
		return nil, EINVAL, true
	}
	out, rc = m(ctx)
	return out, rc, true
}

// callScript executes a script-class method from def against ctx.
func (rt *classRuntime) callScript(def types.ClassDef, method string, ctx *ClassCtx) ([]byte, ResultCode) {
	cc, err := rt.compiledFor(def)
	if err != nil {
		return []byte(err.Error()), EINVAL
	}
	vm, _ := cc.pool.Get().(*classVM)
	if vm == nil {
		vm = &classVM{ip: script.New(), binding: newClsBinding()}
	}
	// Re-run the chunk's top level: pure bytecode (no parse, no
	// compile), it just redefines the method functions before the call.
	if _, rerr := cc.chunk.Run(vm.ip); rerr != nil {
		cc.pool.Put(vm)
		return []byte(rerr.Error()), EINVAL
	}
	fn := vm.ip.Global(method)
	if fn == nil {
		cc.pool.Put(vm)
		return []byte(fmt.Sprintf("class %s has no method %s", def.Name, method)), EINVAL
	}
	vm.binding.bind(ctx)
	vals, cerr := vm.ip.Call(fn, vm.binding.tbl)
	vm.binding.bind(nil) // drop the object reference before pooling
	cc.pool.Put(vm)
	if cerr != nil {
		return []byte(cerr.Error()), codeFromError(cerr)
	}
	return decodeScriptResult(vals)
}

// compiledFor returns the cached compilation of def's source, compiling
// on first sight of this exact content.
func (rt *classRuntime) compiledFor(def types.ClassDef) (*compiledClass, error) {
	h := sha256.Sum256([]byte(def.Script))
	rt.mu.Lock()
	cc, ok := rt.compiled[h]
	rt.mu.Unlock()
	if ok {
		return cc, nil
	}
	chunk, err := script.Compile(def.Script)
	if err != nil {
		return nil, err
	}
	cc = &compiledClass{chunk: chunk}
	rt.mu.Lock()
	if exist, ok := rt.compiled[h]; ok {
		cc = exist // lost a compile race; keep the winner's pool
	} else {
		rt.compiled[h] = cc
		rt.hashOrder = append(rt.hashOrder, h)
		if len(rt.hashOrder) > maxCompiledClasses {
			delete(rt.compiled, rt.hashOrder[0])
			rt.hashOrder = rt.hashOrder[1:]
		}
	}
	rt.mu.Unlock()
	return cc, nil
}

// codeFromError lets scripts abort with a specific result code by
// calling error("ENOENT: ...") etc.; anything else maps to EIO.
func codeFromError(err error) ResultCode {
	msg := err.Error()
	for name, rc := range map[string]ResultCode{
		"ENOENT": ENOENT, "EEXIST": EEXIST, "ESTALE": ESTALE,
		"EINVAL": EINVAL, "ECANCELED": ECANCELED,
	} {
		if containsWord(msg, name) {
			return rc
		}
	}
	return EIO
}

func containsWord(s, w string) bool {
	for i := 0; i+len(w) <= len(s); i++ {
		if s[i:i+len(w)] == w {
			return true
		}
	}
	return false
}

// decodeScriptResult maps script return values to (payload, code):
// return <value>                → value, OK
// return <value>, "<CODENAME>"  → value, code
func decodeScriptResult(vals []script.Value) ([]byte, ResultCode) {
	var payload []byte
	rc := OK
	if len(vals) > 0 && vals[0] != nil {
		switch v := vals[0].(type) {
		case string:
			payload = []byte(v)
		case float64:
			payload = []byte(strconv.FormatFloat(v, 'g', -1, 64))
		case bool:
			if v {
				payload = []byte("true")
			} else {
				payload = []byte("false")
			}
		default:
			return []byte("class returned unsupported type"), EINVAL
		}
	}
	if len(vals) > 1 {
		if name, ok := vals[1].(string); ok {
			switch name {
			case "OK", "":
			case "ENOENT":
				rc = ENOENT
			case "EEXIST":
				rc = EEXIST
			case "ESTALE":
				rc = ESTALE
			case "EINVAL":
				rc = EINVAL
			case "ECANCELED":
				rc = ECANCELED
			default:
				rc = EIO
			}
		}
	}
	return payload, rc
}

// clsBinding is the `cls` table — the object-local host API a script
// method composes (read/write, omap, xattr — the "native interfaces" of
// Section 4.2) — with its ~15 GoFuncs built once. The functions close
// over the binding, not a particular call's context, so a pooled
// binding serves successive calls by swapping the ctx pointer instead
// of rebuilding the table.
type clsBinding struct {
	ctx *ClassCtx
	tbl *script.Table
}

// bind points the table's functions at ctx and refreshes the `input`
// field; bind(nil) releases the object reference between calls.
func (b *clsBinding) bind(ctx *ClassCtx) {
	b.ctx = ctx
	if ctx != nil {
		b.tbl.Set("input", string(ctx.Input)) //nolint:errcheck
	} else {
		b.tbl.Set("input", nil) //nolint:errcheck
	}
}

func newClsBinding() *clsBinding {
	b := &clsBinding{tbl: script.NewTable()}
	set := func(k string, v script.Value) { b.tbl.Set(k, v) } //nolint:errcheck

	set("read", script.GoFunc(func(_ *script.Interp, _ []script.Value) ([]script.Value, error) {
		return []script.Value{string(b.ctx.Obj.Data)}, nil
	}))
	set("write", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		s, ok := argStr(args, 0)
		if !ok {
			return nil, fmt.Errorf("EINVAL: cls.write expects a string")
		}
		b.ctx.saveData()
		b.ctx.mutated = true
		b.ctx.Obj.Data = []byte(s)
		return nil, nil
	}))
	set("append", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		s, ok := argStr(args, 0)
		if !ok {
			return nil, fmt.Errorf("EINVAL: cls.append expects a string")
		}
		b.ctx.saveData()
		b.ctx.mutated = true
		b.ctx.Obj.Data = append(append([]byte(nil), b.ctx.Obj.Data...), s...)
		return nil, nil
	}))
	set("size", script.GoFunc(func(_ *script.Interp, _ []script.Value) ([]script.Value, error) {
		return []script.Value{float64(len(b.ctx.Obj.Data))}, nil
	}))

	set("omap_get", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		k, ok := argStr(args, 0)
		if !ok {
			return nil, fmt.Errorf("EINVAL: cls.omap_get expects a key")
		}
		v, ok := b.ctx.Obj.Omap[k]
		if !ok {
			return []script.Value{nil}, nil
		}
		return []script.Value{string(v)}, nil
	}))
	set("omap_set", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		k, kok := argStr(args, 0)
		v, vok := argStr(args, 1)
		if !kok || !vok {
			return nil, fmt.Errorf("EINVAL: cls.omap_set expects key, value")
		}
		b.ctx.saveOmap(k)
		b.ctx.mutated = true
		b.ctx.Obj.Omap[k] = []byte(v)
		return nil, nil
	}))
	set("omap_del", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		k, ok := argStr(args, 0)
		if !ok {
			return nil, fmt.Errorf("EINVAL: cls.omap_del expects a key")
		}
		b.ctx.saveOmap(k)
		b.ctx.mutated = true
		delete(b.ctx.Obj.Omap, k)
		return nil, nil
	}))
	set("omap_keys", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		prefix, _ := argStr(args, 0)
		keys := b.ctx.Obj.OmapKeysSorted(prefix)
		tbl := script.NewTable()
		for i, k := range keys {
			tbl.Set(float64(i+1), k) //nolint:errcheck
		}
		return []script.Value{tbl}, nil
	}))

	set("getxattr", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		k, ok := argStr(args, 0)
		if !ok {
			return nil, fmt.Errorf("EINVAL: cls.getxattr expects a key")
		}
		v, ok := b.ctx.Obj.Xattrs[k]
		if !ok {
			return []script.Value{nil}, nil
		}
		return []script.Value{string(v)}, nil
	}))
	set("setxattr", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		k, kok := argStr(args, 0)
		v, vok := argStr(args, 1)
		if !kok || !vok {
			return nil, fmt.Errorf("EINVAL: cls.setxattr expects key, value")
		}
		b.ctx.saveXattr(k)
		b.ctx.mutated = true
		b.ctx.Obj.Xattrs[k] = []byte(v)
		return nil, nil
	}))
	set("version", script.GoFunc(func(_ *script.Interp, _ []script.Value) ([]script.Value, error) {
		return []script.Value{float64(b.ctx.Obj.Version)}, nil
	}))
	return b
}

func argStr(args []script.Value, i int) (string, bool) {
	if i >= len(args) {
		return "", false
	}
	switch v := args[i].(type) {
	case string:
		return v, true
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64), true
	}
	return "", false
}
