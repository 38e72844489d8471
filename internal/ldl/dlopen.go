package ldl

// Explicit run-time loading: the dld/dlopen interface the paper compares
// against in section 3. Unlike Sun's dlopen, the module need not be
// self-contained — its undefined references are resolved with the usual
// scoped strategy, and it can in turn satisfy references retained in the
// main program ("Dld will resolve undefined references in the modules it
// brings in ... Neither dld nor the explicitly-invoked Sun/SV routines
// resolves undefined references in the main program" — ldl does both).
//
// These methods back the link_module and sym_addr system calls through
// kern.Runtime.

import "hemlock/internal/objfile"

// LinkByPath brings the named module in at root scope and returns its base
// address. public selects the sharing class (dynamic public vs private).
func (pr *Proc) LinkByPath(name string, public bool) (uint32, error) {
	class := objfile.DynamicPrivate
	if public {
		class = objfile.DynamicPublic
	}
	// Idempotent for public modules already brought in.
	inst, err := pr.BringIn(objfile.ModuleRef{Name: name, Class: class}, pr.root)
	if err != nil {
		return 0, err
	}
	return inst.Base, nil
}

// SymbolAddr resolves a symbol against the root scope, falling back to any
// loaded instance's exports (the dlsym behaviour).
func (pr *Proc) SymbolAddr(name string) (uint32, bool) {
	return pr.Resolve(name)
}
