"""MiniC code generation: behavioural tests (compile, run, check output)."""


from conftest import run_minic


def out(source: str, inputs=None) -> str:
    return run_minic(source, inputs=inputs).output


def main_out(body: str, inputs=None) -> str:
    return out("int main() { " + body + " }", inputs=inputs)


class TestArithmetic:
    def test_literals_and_ops(self):
        assert main_out("print_int(2 + 3 * 4);") == "14"
        assert main_out("print_int((2 + 3) * 4);") == "20"
        assert main_out("print_int(10 - 4 - 3);") == "3"
        assert main_out("print_int(7 / 2);") == "3"
        assert main_out("print_int(-7 / 2);") == "-3"
        assert main_out("print_int(7 % 3);") == "1"
        assert main_out("print_int(-7 % 3);") == "-1"

    def test_bitwise(self):
        assert main_out("print_int(12 & 10);") == "8"
        assert main_out("print_int(12 | 10);") == "14"
        assert main_out("print_int(12 ^ 10);") == "6"
        assert main_out("print_int(~0);") == "-1"
        assert main_out("print_int(1 << 5);") == "32"
        assert main_out("print_int(-32 >> 2);") == "-8"
        assert main_out("print_int(-1 >>> 28);") == "15"

    def test_unary(self):
        assert main_out("int x = 5; print_int(-x);") == "-5"
        assert main_out("print_int(!0); print_int(!7);") == "10"

    def test_overflow_wraps(self):
        assert main_out(
            "int x = 0x7fffffff; print_int(x + 1);"
        ) == "-2147483648"

    def test_comparisons(self):
        assert main_out("print_int(3 < 4); print_int(4 < 3);") == "10"
        assert main_out("print_int(3 <= 3); print_int(4 <= 3);") == "10"
        assert main_out("print_int(4 > 3); print_int(3 > 4);") == "10"
        assert main_out("print_int(3 >= 4);") == "0"
        assert main_out("print_int(3 == 3); print_int(3 != 3);") == "10"
        assert main_out("print_int(-1 < 1);") == "1"  # signed compare

    def test_deep_expression_spills(self):
        # forces the register stack past t0..t7
        expr = "1 + (2 + (3 + (4 + (5 + (6 + (7 + (8 + (9 + (10 + 11)))))))))"
        assert main_out(f"print_int({expr});") == "66"

    def test_wide_expression(self):
        terms = " + ".join(str(i) for i in range(1, 21))
        assert main_out(f"print_int({terms});") == "210"


class TestLogicalOperators:
    def test_values(self):
        assert main_out("print_int(1 && 2);") == "1"
        assert main_out("print_int(0 && 1);") == "0"
        assert main_out("print_int(0 || 3);") == "1"
        assert main_out("print_int(0 || 0);") == "0"

    def test_short_circuit_and(self):
        source = """
        int calls = 0;
        int touch() { calls++; return 1; }
        int main() {
            int r = 0 && touch();
            print_int(calls);
            r = 1 && touch();
            print_int(calls);
            return 0;
        }
        """
        assert out(source) == "01"

    def test_short_circuit_or(self):
        source = """
        int calls = 0;
        int touch() { calls++; return 0; }
        int main() {
            int r = 1 || touch();
            print_int(calls);
            r = 0 || touch();
            print_int(calls);
            return 0;
        }
        """
        assert out(source) == "01"

    def test_ternary(self):
        assert main_out("int x = 5; print_int(x > 3 ? 10 : 20);") == "10"
        assert main_out("int x = 1; print_int(x > 3 ? 10 : 20);") == "20"
        assert main_out("print_int(1 ? 0 ? 1 : 2 : 3);") == "2"


class TestVariablesAndScopes:
    def test_init_and_assign(self):
        assert main_out("int x = 3; x = x + 1; print_int(x);") == "4"

    def test_compound_assignments(self):
        assert main_out(
            "int x = 10; x += 5; x -= 3; x *= 2; x /= 4; x %= 4; print_int(x);"
        ) == "2"
        assert main_out(
            "int x = 12; x &= 10; x |= 1; x ^= 2; print_int(x);"
        ) == "11"
        assert main_out("int x = 3; x <<= 2; x >>= 1; print_int(x);") == "6"

    def test_increments(self):
        assert main_out("int i = 5; i++; i++; i--; print_int(i);") == "6"

    def test_shadowing(self):
        assert main_out(
            "int x = 1; { int x = 2; print_int(x); } print_int(x);"
        ) == "21"

    def test_globals(self):
        assert out(
            "int g = 7; int bump() { g += 1; return g; }"
            "int main() { bump(); bump(); print_int(g); return 0; }"
        ) == "9"

    def test_uninitialised_global_is_zero(self):
        assert out("int g; int main() { print_int(g); return 0; }") == "0"

    def test_unbraced_decl_arm_declares_into_enclosing_scope(self):
        # `if (0) int x;` declares x for the rest of the block even
        # though the arm never runs
        assert main_out("if (0) int x; x = 5; print_int(x);") == "5"

    def test_register_vars(self):
        assert main_out(
            "register int a = 2; register int b = 3; print_int(a * b);"
        ) == "6"

    def test_register_vars_survive_calls(self):
        source = """
        int clobber() { int t = 99; return t; }
        int main() {
            register int keep = 42;
            clobber();
            print_int(keep);
            return 0;
        }
        """
        assert out(source) == "42"

    def test_more_register_vars_than_sregs(self):
        decls = "".join(f"register int r{i} = {i};" for i in range(9))
        total = "+".join(f"r{i}" for i in range(9))
        assert main_out(decls + f"print_int({total});") == "36"


class TestArrays:
    def test_local_array(self):
        assert main_out(
            "int a[3]; a[0] = 5; a[1] = 6; a[2] = 7;"
            "print_int(a[0] + a[1] + a[2]);"
        ) == "18"

    def test_global_array_with_init(self):
        assert out(
            "int a[] = { 10, 20, 30 };"
            "int main() { print_int(a[1]); return 0; }"
        ) == "20"

    def test_global_array_partial_init_zero_filled(self):
        assert out(
            "int a[4] = { 1 };"
            "int main() { print_int(a[0] + a[3]); return 0; }"
        ) == "1"

    def test_computed_index(self):
        assert main_out(
            "int a[4]; int i; for (i = 0; i < 4; i++) a[i] = i * i;"
            "print_int(a[3]);"
        ) == "9"

    def test_compound_assign_element(self):
        assert main_out("int a[2]; a[1] = 3; a[1] += 4; print_int(a[1]);") == "7"

    def test_array_passed_as_pointer(self):
        source = """
        int sum(int p, int n) {
            int total = 0;
            int i;
            for (i = 0; i < n; i++) total += p[i];
            return total;
        }
        int main() {
            int a[4];
            a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
            print_int(sum(a, 4));
            return 0;
        }
        """
        assert out(source) == "10"

    def test_address_of_local_scalar(self):
        assert main_out(
            "int x = 5; int p = &x; store(p, 9); print_int(x);"
        ) == "9"


class TestControlFlow:
    def test_if_chain(self):
        source = """
        int grade(int score) {
            if (score >= 90) return 4;
            else if (score >= 80) return 3;
            else if (score >= 70) return 2;
            else return 0;
        }
        int main() {
            print_int(grade(95)); print_int(grade(85));
            print_int(grade(75)); print_int(grade(50));
            return 0;
        }
        """
        assert out(source) == "4320"

    def test_while_and_break_continue(self):
        assert main_out(
            "int i = 0; int s = 0;"
            "while (1) { i++; if (i > 10) break;"
            "if (i % 2) continue; s += i; } print_int(s);"
        ) == "30"

    def test_do_while_runs_once(self):
        assert main_out("int i = 9; do { i++; } while (i < 5); print_int(i);") == "10"

    def test_for_with_decl(self):
        assert main_out(
            "int s = 0; for (int i = 1; i <= 4; i++) s += i; print_int(s);"
        ) == "10"

    def test_nested_loops_break_inner_only(self):
        assert main_out(
            "int c = 0; int i; int j;"
            "for (i = 0; i < 3; i++) for (j = 0; j < 5; j++)"
            "{ if (j == 2) break; c++; } print_int(c);"
        ) == "6"

    def test_continue_in_for_runs_step(self):
        assert main_out(
            "int c = 0; int i;"
            "for (i = 0; i < 10; i++) { if (i & 1) continue; c++; }"
            "print_int(c);"
        ) == "5"

    def test_for_init_runs_once_when_condition_is_false(self):
        assert out(
            "int calls = 0;"
            "int touch() { calls++; return 0; }"
            "int main() { for (touch(); 0; ) print_int(9);"
            "print_int(calls); return 0; }"
        ) == "1"


class TestSwitch:
    DENSE = """
    int pick(int x) {
        switch (x) {
        case 0: return 10;
        case 1: return 11;
        case 2: return 12;
        case 3: return 13;
        case 4: return 14;
        default: return -1;
        }
    }
    int main() {
        int i;
        for (i = -1; i < 6; i++) { print_int(pick(i)); print_char(' '); }
        return 0;
    }
    """

    def test_dense_switch_lowered_to_jump_table(self):
        from repro.lang import compile_source

        assembly = compile_source(self.DENSE)
        assert "jr   t8" in assembly  # jump table dispatch

    def test_dense_switch_semantics(self):
        assert out(self.DENSE) == "-1 10 11 12 13 14 -1 "

    def test_sparse_switch_compare_chain(self):
        from repro.lang import compile_source

        source = """
        int pick(int x) {
            switch (x) {
            case 1: return 1;
            case 100: return 2;
            case 10000: return 3;
            default: return 0;
            }
        }
        int main() {
            print_int(pick(1)); print_int(pick(100));
            print_int(pick(10000)); print_int(pick(5));
            return 0;
        }
        """
        assert "jr   t8" not in compile_source(source)
        assert out(source) == "1230"

    def test_fallthrough(self):
        assert main_out(
            "int r = 0;"
            "switch (2) { case 1: r += 1; case 2: r += 2; case 3: r += 4;"
            "break; case 4: r += 8; } print_int(r);"
        ) == "6"

    def test_no_default_falls_out(self):
        assert main_out(
            "int r = 5; switch (99) { case 1: r = 1; } print_int(r);"
        ) == "5"

    def test_negative_selector_range(self):
        assert main_out(
            "int r; switch (-2) { case -3: r = 1; break; case -2: r = 2;"
            "break; case -1: r = 3; break; case 0: r = 4; break;"
            "default: r = 0; } print_int(r);"
        ) == "2"


class TestFunctions:
    def test_multiple_args(self):
        assert out(
            "int f(int a, int b, int c, int d) { return a*1000 + b*100 + c*10 + d; }"
            "int main() { print_int(f(1, 2, 3, 4)); return 0; }"
        ) == "1234"

    def test_more_than_four_args_via_stack(self):
        assert out(
            "int f(int a, int b, int c, int d, int e, int g, int h, int i)"
            "{ return a + b + c + d + e + g + h + i; }"
            "int main() { print_int(f(1, 2, 3, 4, 5, 6, 7, 8)); return 0; }"
        ) == "36"

    def test_stack_param_is_writable(self):
        assert out(
            "int f(int a, int b, int c, int d, int e) { e += 1; return e; }"
            "int main() { print_int(f(0, 0, 0, 0, 9)); return 0; }"
        ) == "10"

    def test_recursion(self):
        assert out(
            "int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }"
            "int main() { print_int(fact(7)); return 0; }"
        ) == "5040"

    def test_mutual_recursion(self):
        assert out(
            "int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }"
            "int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }"
            "int main() { print_int(is_even(10)); print_int(is_even(7)); return 0; }"
        ) == "10"

    def test_nested_calls_preserve_temps(self):
        assert out(
            "int id(int x) { return x; }"
            "int main() { print_int(id(1) + id(2) * id(3)); return 0; }"
        ) == "7"

    def test_call_as_argument(self):
        assert out(
            "int sq(int x) { return x * x; }"
            "int main() { print_int(sq(sq(3))); return 0; }"
        ) == "81"

    def test_missing_return_yields_zero(self):
        assert out(
            "int f() { int x = 5; x = x; }"
            "int main() { print_int(f()); return 0; }"
        ) == "0"

    def test_main_return_is_exit_code(self):
        result = run_minic("int main() { return 17; }")
        assert result.exit_code == 17


class TestIndirectCalls:
    def test_via_variable(self):
        assert out(
            "int inc(int x) { return x + 1; }"
            "int main() { int f = &inc; print_int(f(41)); return 0; }"
        ) == "42"

    def test_via_table_element(self):
        assert out(
            "int a(int x) { return x + 1; }"
            "int b(int x) { return x * 2; }"
            "int t[] = { &a, &b };"
            "int main() { print_int(t[0](10)); print_int(t[1](10)); return 0; }"
        ) == "1120"

    def test_function_name_as_value(self):
        assert out(
            "int f(int x) { return x; }"
            "int main() { int p = f; print_int(p(5)); return 0; }"
        ) == "5"

    def test_returned_function_pointer(self):
        assert out(
            "int dbl(int x) { return 2 * x; }"
            "int get() { return &dbl; }"
            "int main() { print_int(get()(21)); return 0; }"
        ) == "42"


class TestBuiltins:
    def test_print_family(self):
        assert main_out(
            'print_int(1); print_char(\'-\'); print_str("two");'
        ) == "1-two"

    def test_read_int(self):
        assert main_out(
            "print_int(read_int() + read_int());", inputs=[20, 22]
        ) == "42"

    def test_exit_stops_immediately(self):
        result = run_minic("int main() { exit(5); print_int(1); return 0; }")
        assert result.exit_code == 5
        assert result.output == ""

    def test_sbrk_load_store(self):
        assert main_out(
            "int p = sbrk(8); store(p, 11); store(p + 4, 31);"
            "print_int(load(p) + load(p + 4));"
        ) == "42"

    def test_string_escapes(self):
        assert main_out(r'print_str("a\tb\n");') == "a\tb\n"

    def test_string_deduplication(self):
        from repro.lang import compile_source

        assembly = compile_source(
            'int main() { print_str("same"); print_str("same"); return 0; }'
        )
        assert assembly.count('.asciiz "same"') == 1


class TestDataLayout:
    def test_globals_realigned_after_odd_strings(self):
        """Regression: an odd-length string before an uninitialised global
        array must not leave the array word-misaligned."""
        source = """
        int table[4];
        int main() {
            print_str("odd");        /* 4 bytes with NUL... use 3+1 */
            print_str("x");          /* 2 bytes: forces odd offset  */
            table[0] = 7;
            table[3] = 9;
            print_int(table[0] + table[3]);
            return 0;
        }
        """
        assert out(source) == "oddx16"

    def test_scalar_after_string(self):
        source = """
        int g;
        int main() { print_str("ab!"); g = 5; print_int(g); return 0; }
        """
        assert out(source) == "ab!5"
