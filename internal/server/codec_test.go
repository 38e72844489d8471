package server

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// requestSeeds are request bodies, good and bad, for FuzzDecodeRequest.
func requestSeeds() []string {
	nested := func(depth int) string {
		return `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
	}
	return []string{
		// The bodies server_test.go and txn_test.go send.
		`{"program":"agent","fn":"kv_get","args":[1]}`,
		`{"program":"agent","fn":"kv_put","args":[1,5]}`,
		`{"program":"agent","fn":"kv_put","args":[7,1234]}`,
		`{"program":"agent","fn":"kv_get","args":[9]}`,
		`{"program":"agent","name":"kv_table","off":36,"value":777}`,
		`{"exe":"/bin/kvmain","run":true}`,
		`{"program":"nope","fn":"kv_get"}`,
		`{"program":"agent","fn":"nope"}`,
		`{"program":`,
		`{"modules":[{"name":"kv.o","class":"shared"}]}`,
		`{"program":"agent","fn":"kv_get","args":[1,2,3,4,5]}`,
		`{"run":true}`,
		`{"name":"agent","exe":"/bin/kvmain","run":true}`,
		`{"exe":"/bin/junk","run":true}`,
		`{"exe":"/bin/kvmain","run":true,"max_steps":3}`,
		`{"exe":"/bin/past","run":true}`,
		`{"program":"agent","fn":"kv_bump"}`,
		`{"program":"agent","fn":"kv_put","args":[1,2]}`,
		`{"reads":[{"path":"/lib/acct","off":0}],"writes":[{"path":"/lib/acct","off":0,"value":41},{"path":"/lib/acct","off":4,"value":42}]}`,
		`{"writes":[{"path":"/lib/acct","off":8,"value":7}]}`,
		// CI's hostile-input smoke.
		`{"exe":"/bin/trunc","run":true}`,
		// perfbench serve's shapes and hemlock load's.
		`{"program":"agent","fn":"kv_put","args":[12,3735928559]}`,
		`{"program":"agent","name":"kv_table","off":48,"value":4294967295}`,
		`{"reads":[{"path":"/lib/acct","off":8},{"path":"/lib/acct","off":4088}],"writes":[{"path":"/lib/acct","off":16,"value":1},{"path":"/lib/acct","off":24,"value":2}]}`,
		`{"modules":[{"name":"main.o","class":"static_private"},{"name":"kv.o","class":"dynamic-public"}],"path":["/lib","/usr/lib"],"jump_tables":true,"env":{"LD_LIBRARY_PATH":"/lib"},"uid":7,"name":"svc"}`,
		// Keys that match a field by folding.
		`{"PROGRAM":"agent","Fn":"kv_get","ARGS":[1],"Max_Steps":9}`,
		`{"max_ſteps":5,"ſtate":1}`,
		`{"EXE":"/bin/x","Jump_Tables":true,"ENV":{"A":"b"},"ruN":true,"UID":-3}`,
		`{"READS":[{"PATH":"/a","OFF":4}],"wRiTeS":[{"Path":"/b","Off":8,"VALUE":1}]}`,
		"{\"\u212aey\":1,\"progra\u1e41\":2}",
		// Escaped keys and values, raw UTF-8 and bytes JSON forbids.
		`{"\u0070rogram":"a\u0067ent","fn":"kv\u005fget"}`,
		`{"program":"a\"b\\c\/d\n\t\u00e9\ud83d\ude00"}`,
		`{"env":{"\u00e9":"\ud83d\ude00","k\"":"v","":""}}`,
		`{"fn":"\ud800","name":"\x"}`,
		`{"program":"é","fn":"` + "\xff\xfe" + `"}`,
		"{\"program\":\"a\x01b\"}",
		"{\"program\":\"a\x7fb\"}",
		// Values of keys no field takes.
		`{"program":"agent","extra":{"a":[1,{"b":null}],"c":"}"},"fn":"kv_get"}`,
		`{"reads":[{"path":"/p","off":4,"meta":[true,false,null,-1.5e3]}]}`,
		`{"x":"\"]}","y":1.5e-3,"z":-0,"w":true,"v":[]}`,
		`{"x":tru}`,
		`{"x":[1,]}`,
		`{"x":{"a"}}`,
		`{"x":01}`,
		`{"x":}`,
		`{"x":[}`,
		`{"x":"\q"}`,
		nested(9999),
		nested(10000),
		nested(10001),
		// Nulls.
		`null`,
		" \t\r\nnull\n",
		`{"program":null,"fn":null,"args":null,"max_steps":null}`,
		`{"args":[1,null,3]}`,
		`{"env":null,"path":null,"modules":null}`,
		`{"env":{"a":null}}`,
		`{"modules":[null,{"name":null}]}`,
		`{"reads":null,"writes":[null]}`,
		`{"run":null,"uid":null,"jump_tables":null}`,
		`{"off":null,"value":null}`,
		// Later duplicates win, over what the earlier ones left.
		`{"args":[1,2,3],"args":[4]}`,
		`{"args":[1,2],"args":[],"args":[null,null]}`,
		`{"args":[1,2,3],"args":[4],"args":[null,null,null,null]}`,
		`{"reads":[{"path":"a","off":1},{"path":"c","off":2}],"reads":[{}],"reads":[{},{}]}`,
		`{"modules":[{"name":"a","class":"x"}],"modules":[{"class":"y"}]}`,
		`{"env":{"a":"1"},"env":{"b":"2"},"env":{"a":"3"}}`,
		`{"program":"a","PROGRAM":"b","Program":null}`,
		// Whitespace, trailing bytes and bodies that are not objects.
		" \t\r\n{ \"program\" : \"a\" , \"args\" : [ 1 , 2 ] } \n",
		`{} x`,
		`{}{}`,
		`null null`,
		`{"program":"a"},`,
		"{}\x00",
		`{,}`,
		`{"program":"a",}`,
		`{"program" "a"}`,
		`[]`,
		`"x"`,
		`5`,
		`true`,
		``,
		` `,
		// Values of the wrong type.
		`{"program":5}`,
		`{"args":"1"}`,
		`{"args":{}}`,
		`{"run":1}`,
		`{"env":[]}`,
		`{"env":{"a":1}}`,
		`{"max_steps":"5"}`,
		`{"reads":[1]}`,
		// Integers at each bound, and numbers no integer field takes.
		`{"args":[0,4294967295],"max_steps":18446744073709551615,"off":4294967295,"value":0}`,
		`{"args":[4294967296]}`,
		`{"off":4294967296}`,
		`{"max_steps":18446744073709551616}`,
		`{"max_steps":99999999999999999999}`,
		`{"args":[-1]}`,
		`{"args":[-0]}`,
		`{"uid":9223372036854775807}`,
		`{"uid":9223372036854775808}`,
		`{"uid":-9223372036854775808}`,
		`{"uid":-9223372036854775809}`,
		`{"uid":-0}`,
		`{"args":[1.0]}`,
		`{"args":[1e2]}`,
		`{"value":1E2}`,
		`{"uid":0.5}`,
		`{"args":[01]}`,
		`{"args":[-]}`,
		`{"args":[--1]}`,
		`{"args":[+1]}`,
		`{"args":[1.]}`,
	}
}

// newRequest returns a zero request of the type kind picks.
func newRequest(kind uint8) any {
	switch kind % 4 {
	case 0:
		return &LaunchRequest{}
	case 1:
		return &CallRequest{}
	case 2:
		return &VarWriteRequest{}
	}
	return &TxnRequest{}
}

// nilEmpties sets every empty slice and map reachable from v to nil.
func nilEmpties(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		nilEmpties(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			nilEmpties(v.Field(i))
		}
	case reflect.Slice, reflect.Map:
		if v.Len() == 0 {
			v.SetZero()
		} else if v.Kind() == reflect.Slice {
			for i := 0; i < v.Len(); i++ {
				nilEmpties(v.Index(i))
			}
		}
	}
}

// FuzzDecodeRequest: the codec decodes a body into each request type as
// json.Unmarshal does. Both fail, or both succeed with equal values; a nil
// and an empty slice or map count as equal.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range requestSeeds() {
		for kind := uint8(0); kind < 4; kind++ {
			f.Add([]byte(s), kind)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, kind uint8) {
		got, want := newRequest(kind), newRequest(kind)
		err := decodeRequest(data, got)
		wantErr := json.Unmarshal(data, want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%T from %.200q: codec error %v, encoding/json error %v", got, data, err, wantErr)
		}
		if err != nil {
			return
		}
		nilEmpties(reflect.ValueOf(got))
		nilEmpties(reflect.ValueOf(want))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T from %.200q:\ncodec         %+v\nencoding/json %+v", got, data, got, want)
		}
	})
}

// TestRepliesMatchEncodingJSON: every reply the codec appends is the bytes
// json.Encoder writes for it: json.Marshal's, then a newline.
func TestRepliesMatchEncodingJSON(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	strs := []string{"", "agent", "kv_table", string(all), "<a href=\"x\">&amp;</a>",
		"\u2028\u2029", "\xff\xfe\xc3", "é\U0001F600", "tab\there", `back\slash`, "\x7f"}
	for _, s := range strs {
		for _, v := range []replyBody{
			&LaunchResponse{Program: s, PID: 5, Exited: true, ExitCode: -1, Output: s},
			&LaunchResponse{Program: s, PID: math.MaxInt, ExitCode: math.MinInt},
			&CallResponse{Ret: math.MaxUint32, Steps: math.MaxUint64},
			&CallResponse{},
			&VarResponse{Program: s, Name: s, Addr: 0x30000000, Off: 4, Value: math.MaxUint32},
			&TxnResponse{State: s},
			&TxnResponse{State: s, Txid: math.MaxUint64, Values: []uint32{}},
			&TxnResponse{State: s, Txid: 1, Values: []uint32{0, 7, math.MaxUint32}},
			&errResponse{Error: s},
			&InfoResponse{Programs: []string{s, "p1"}},
		} {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if got := v.appendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Errorf("%T with %q:\ngot  %q\nwant %q", v, s, got, want)
			}
		}
	}
}
