package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
)

// This file is the fact mechanism: the cross-package half of the
// interprocedural layer. An analyzer attaches a JSON-serializable summary
// to a function (or any package-level object) with ExportFact; when a
// downstream package is analyzed, the drivers hand the accumulated facts
// of its dependency closure to ImportFact. Facts are keyed by a stable
// textual object key rather than by types.Object identity, because the
// importing package sees the exporter's objects through export data — a
// different *types.Func for the same function.
//
// Facts live in a namespace, conventionally the exporting analyzer's
// name; a namespace distinct from the analyzer lets sibling analyzers
// share one summary family (guardedby and lockcontract both read the
// "lockcontract" namespace, and both export it, so either works alone).
//
// Both drivers, standalone and analysistest, keep facts in memory and
// analyze dependencies first.

// A FactKey identifies one object's fact in one namespace.
type FactKey struct {
	NS     string // namespace, conventionally the exporting analyzer
	Object string // stable object key, see ObjectKey
}

// Facts maps keys to JSON-encoded fact values.
type Facts map[FactKey]json.RawMessage

// ObjectKey renders a stable, export-data-independent key for a
// package-level object or method: "path.Name" for package-level objects,
// "(path.Recv).Name" for methods (pointer receivers are stripped — a
// method set has one owner type). It returns "" for objects facts cannot
// name across packages (locals, interface methods without a concrete
// receiver type, builtins).
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			t := sig.Recv().Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "" // interface or unnamed receiver
			}
			return fmt.Sprintf("(%s.%s).%s", named.Obj().Pkg().Path(), named.Obj().Name(), fn.Name())
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// ExportFact records a fact about obj in namespace ns for downstream
// packages. The value must marshal to JSON; objects without a stable key
// are silently skipped (they cannot be referenced across packages).
func (p *Pass) ExportFact(ns string, obj types.Object, v any) {
	key := ObjectKey(obj)
	if key == "" || p.exported == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	p.exported[FactKey{ns, key}] = data
}

// ImportFact decodes the fact recorded for obj in namespace ns by a
// dependency package into v, reporting whether one was found. Facts the
// current package exported during this run are visible too, so analyzers
// that run after the exporter in the same pass can read them.
func (p *Pass) ImportFact(ns string, obj types.Object, v any) bool {
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	data, ok := p.imported[FactKey{ns, key}]
	if !ok {
		data, ok = p.exported[FactKey{ns, key}]
	}
	if !ok {
		return false
	}
	return json.Unmarshal(data, v) == nil
}
