// generated by adgen from netlist `srag_2r_4ff`
module srag_2r_4ff (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3
);
    wire divcnt_q0;
    wire and2_1;
    wire xor2_3;
    wire passcnt_q0;
    wire passcnt_q1;
    wire and2_5;
    wire and2_7;
    wire and2_9;
    wire xor2_11;
    wire xor2_13;
    wire s0_0;
    wire s0_1;
    wire s1_0;
    wire s1_1;
    wire mux2_15;
    wire mux2_17;
    wire or2_19;
    wire and2_21;
    assign po_0 = s0_0;
    assign po_1 = s0_1;
    assign po_2 = s1_0;
    assign po_3 = s1_1;
    vcl018_and2 u0 (.y(and2_1), .a(next), .b(divcnt_q0));
    vcl018_xor2 u1 (.y(xor2_3), .a(divcnt_q0), .b(next));
    vcl018_dffr u2 (.q(divcnt_q0), .d(xor2_3), .rst(reset), .clk(clk));
    vcl018_and2 u3 (.y(and2_5), .a(passcnt_q0), .b(passcnt_q1));
    vcl018_and2 u4 (.y(and2_7), .a(and2_1), .b(passcnt_q0));
    vcl018_and2 u5 (.y(and2_9), .a(and2_1), .b(and2_5));
    vcl018_xor2 u6 (.y(xor2_11), .a(passcnt_q0), .b(and2_1));
    vcl018_dffr u7 (.q(passcnt_q0), .d(xor2_11), .rst(reset), .clk(clk));
    vcl018_xor2 u8 (.y(xor2_13), .a(passcnt_q1), .b(and2_7));
    vcl018_dffr u9 (.q(passcnt_q1), .d(xor2_13), .rst(reset), .clk(clk));
    vcl018_mux2 u10 (.y(mux2_15), .d0(s0_1), .d1(s1_1), .sel(and2_9));
    vcl018_dffse u11 (.q(s0_0), .d(mux2_15), .en(and2_1), .set(reset), .clk(clk));
    vcl018_dffre u12 (.q(s0_1), .d(s0_0), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_mux2 u13 (.y(mux2_17), .d0(s1_1), .d1(s0_1), .sel(and2_9));
    vcl018_dffre u14 (.q(s1_0), .d(mux2_17), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_dffre u15 (.q(s1_1), .d(s1_0), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_or2 u16 (.y(or2_19), .a(s1_0), .b(s1_1));
    vcl018_and2 u17 (.y(and2_21), .a(and2_9), .b(or2_19));
endmodule
// generated by adgen from netlist `srag_2r_4ff`
module srag_2r_4ff (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3
);
    wire divcnt_r0;
    wire divcnt_r1;
    wire and2_1;
    wire passcnt_r0;
    wire passcnt_r1;
    wire passcnt_r2;
    wire passcnt_r3;
    wire and2_3;
    wire s0_0;
    wire s0_1;
    wire s1_0;
    wire s1_1;
    wire mux2_5;
    wire mux2_7;
    wire or2_9;
    wire and2_11;
    assign po_0 = s0_0;
    assign po_1 = s0_1;
    assign po_2 = s1_0;
    assign po_3 = s1_1;
    vcl018_dffse u0 (.q(divcnt_r0), .d(divcnt_r1), .en(next), .set(reset), .clk(clk));
    vcl018_dffre u1 (.q(divcnt_r1), .d(divcnt_r0), .en(next), .rst(reset), .clk(clk));
    vcl018_and2 u2 (.y(and2_1), .a(next), .b(divcnt_r1));
    vcl018_dffse u3 (.q(passcnt_r0), .d(passcnt_r3), .en(and2_1), .set(reset), .clk(clk));
    vcl018_dffre u4 (.q(passcnt_r1), .d(passcnt_r0), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_dffre u5 (.q(passcnt_r2), .d(passcnt_r1), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_dffre u6 (.q(passcnt_r3), .d(passcnt_r2), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_and2 u7 (.y(and2_3), .a(and2_1), .b(passcnt_r3));
    vcl018_mux2 u8 (.y(mux2_5), .d0(s0_1), .d1(s1_1), .sel(and2_3));
    vcl018_dffse u9 (.q(s0_0), .d(mux2_5), .en(and2_1), .set(reset), .clk(clk));
    vcl018_dffre u10 (.q(s0_1), .d(s0_0), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_mux2 u11 (.y(mux2_7), .d0(s1_1), .d1(s0_1), .sel(and2_3));
    vcl018_dffre u12 (.q(s1_0), .d(mux2_7), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_dffre u13 (.q(s1_1), .d(s1_0), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_or2 u14 (.y(or2_9), .a(s1_0), .b(s1_1));
    vcl018_and2 u15 (.y(and2_11), .a(and2_3), .b(or2_9));
endmodule
// generated by adgen from netlist `srag_2r_4ff`
module srag_2r_4ff (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4,
    output wire po_5
);
    wire divcnt_state_q0;
    wire inv_1;
    wire and2_3;
    wire passcnt_state_q0;
    wire passcnt_state_q1;
    wire inv_5;
    wire inv_7;
    wire and2_9;
    wire and2_11;
    wire or2_13;
    wire and2_15;
    wire and2_17;
    wire s0_0;
    wire s0_1;
    wire s1_0;
    wire s1_1;
    wire mux2_19;
    wire mux2_21;
    wire or2_23;
    wire and2_25;
    assign po_0 = divcnt_state_q0;
    assign po_1 = and2_15;
    assign po_2 = s0_0;
    assign po_3 = s0_1;
    assign po_4 = s1_0;
    assign po_5 = s1_1;
    vcl018_inv u0 (.y(inv_1), .a(divcnt_state_q0));
    vcl018_dffre u1 (.q(divcnt_state_q0), .d(inv_1), .en(next), .rst(reset), .clk(clk));
    vcl018_and2 u2 (.y(and2_3), .a(next), .b(divcnt_state_q0));
    vcl018_inv u3 (.y(inv_5), .a(passcnt_state_q0));
    vcl018_inv u4 (.y(inv_7), .a(passcnt_state_q1));
    vcl018_dffre u5 (.q(passcnt_state_q0), .d(inv_5), .en(and2_3), .rst(reset), .clk(clk));
    vcl018_and2 u6 (.y(and2_9), .a(passcnt_state_q0), .b(inv_7));
    vcl018_and2 u7 (.y(and2_11), .a(inv_5), .b(passcnt_state_q1));
    vcl018_or2 u8 (.y(or2_13), .a(and2_9), .b(and2_11));
    vcl018_dffre u9 (.q(passcnt_state_q1), .d(or2_13), .en(and2_3), .rst(reset), .clk(clk));
    vcl018_and2 u10 (.y(and2_15), .a(passcnt_state_q0), .b(passcnt_state_q1));
    vcl018_and2 u11 (.y(and2_17), .a(and2_3), .b(and2_15));
    vcl018_mux2 u12 (.y(mux2_19), .d0(s0_1), .d1(s1_1), .sel(and2_17));
    vcl018_dffse u13 (.q(s0_0), .d(mux2_19), .en(and2_3), .set(reset), .clk(clk));
    vcl018_dffre u14 (.q(s0_1), .d(s0_0), .en(and2_3), .rst(reset), .clk(clk));
    vcl018_mux2 u15 (.y(mux2_21), .d0(s1_1), .d1(s0_1), .sel(and2_17));
    vcl018_dffre u16 (.q(s1_0), .d(mux2_21), .en(and2_3), .rst(reset), .clk(clk));
    vcl018_dffre u17 (.q(s1_1), .d(s1_0), .en(and2_3), .rst(reset), .clk(clk));
    vcl018_or2 u18 (.y(or2_23), .a(s1_0), .b(s1_1));
    vcl018_and2 u19 (.y(and2_25), .a(and2_17), .b(or2_23));
endmodule
// generated by adgen from netlist `srag_hard_2r_4ff`
module srag_hard_2r_4ff (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4
);
    wire divcnt_q0;
    wire and2_1;
    wire xor2_3;
    wire passcnt_q0;
    wire passcnt_q1;
    wire and2_5;
    wire and2_7;
    wire and2_9;
    wire xor2_11;
    wire xor2_13;
    wire s0_0;
    wire s0_1;
    wire s1_0;
    wire s1_1;
    wire and2_15;
    wire or2_17;
    wire and2_19;
    wire or2_21;
    wire or2_23;
    wire and2_25;
    wire or2_27;
    wire or2_29;
    wire inv_31;
    wire or2_33;
    wire or2_35;
    wire mux2_37;
    wire mux2_39;
    wire or2_41;
    wire and2_43;
    assign po_0 = s0_0;
    assign po_1 = s0_1;
    assign po_2 = s1_0;
    assign po_3 = s1_1;
    assign po_4 = or2_33;
    vcl018_and2 u0 (.y(and2_1), .a(next), .b(divcnt_q0));
    vcl018_xor2 u1 (.y(xor2_3), .a(divcnt_q0), .b(next));
    vcl018_dffr u2 (.q(divcnt_q0), .d(xor2_3), .rst(reset), .clk(clk));
    vcl018_and2 u3 (.y(and2_5), .a(passcnt_q0), .b(passcnt_q1));
    vcl018_and2 u4 (.y(and2_7), .a(and2_1), .b(passcnt_q0));
    vcl018_and2 u5 (.y(and2_9), .a(and2_1), .b(and2_5));
    vcl018_xor2 u6 (.y(xor2_11), .a(passcnt_q0), .b(and2_1));
    vcl018_dffr u7 (.q(passcnt_q0), .d(xor2_11), .rst(reset), .clk(clk));
    vcl018_xor2 u8 (.y(xor2_13), .a(passcnt_q1), .b(and2_7));
    vcl018_dffr u9 (.q(passcnt_q1), .d(xor2_13), .rst(reset), .clk(clk));
    vcl018_and2 u10 (.y(and2_15), .a(s0_0), .b(s0_1));
    vcl018_or2 u11 (.y(or2_17), .a(s0_0), .b(s0_1));
    vcl018_and2 u12 (.y(and2_19), .a(or2_17), .b(s1_0));
    vcl018_or2 u13 (.y(or2_21), .a(and2_15), .b(and2_19));
    vcl018_or2 u14 (.y(or2_23), .a(or2_17), .b(s1_0));
    vcl018_and2 u15 (.y(and2_25), .a(or2_23), .b(s1_1));
    vcl018_or2 u16 (.y(or2_27), .a(or2_21), .b(and2_25));
    vcl018_or2 u17 (.y(or2_29), .a(or2_23), .b(s1_1));
    vcl018_inv u18 (.y(inv_31), .a(or2_29));
    vcl018_or2 u19 (.y(or2_33), .a(inv_31), .b(or2_27));
    vcl018_or2 u20 (.y(or2_35), .a(reset), .b(or2_33));
    vcl018_mux2 u21 (.y(mux2_37), .d0(s0_1), .d1(s1_1), .sel(and2_9));
    vcl018_dffse u22 (.q(s0_0), .d(mux2_37), .en(and2_1), .set(or2_35), .clk(clk));
    vcl018_dffre u23 (.q(s0_1), .d(s0_0), .en(and2_1), .rst(or2_35), .clk(clk));
    vcl018_mux2 u24 (.y(mux2_39), .d0(s1_1), .d1(s0_1), .sel(and2_9));
    vcl018_dffre u25 (.q(s1_0), .d(mux2_39), .en(and2_1), .rst(or2_35), .clk(clk));
    vcl018_dffre u26 (.q(s1_1), .d(s1_0), .en(and2_1), .rst(or2_35), .clk(clk));
    vcl018_or2 u27 (.y(or2_41), .a(s1_0), .b(s1_1));
    vcl018_and2 u28 (.y(and2_43), .a(and2_9), .b(or2_41));
endmodule
// generated by adgen from netlist `srag2d_4x4`
module srag2d_4x4 (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4,
    output wire po_5,
    output wire po_6,
    output wire po_7
);
    wire row_divcnt_q0;
    wire row_divcnt_q1;
    wire and2_1;
    wire and2_3;
    wire and2_5;
    wire xor2_7;
    wire xor2_9;
    wire row_s0_0;
    wire row_s0_1;
    wire row_s0_2;
    wire row_s0_3;
    wire and2_11;
    wire col_s0_0;
    wire col_s0_1;
    wire col_s0_2;
    wire col_s0_3;
    wire and2_13;
    assign po_0 = row_s0_0;
    assign po_1 = row_s0_1;
    assign po_2 = row_s0_2;
    assign po_3 = row_s0_3;
    assign po_4 = col_s0_0;
    assign po_5 = col_s0_1;
    assign po_6 = col_s0_2;
    assign po_7 = col_s0_3;
    vcl018_and2 u0 (.y(and2_1), .a(row_divcnt_q0), .b(row_divcnt_q1));
    vcl018_and2 u1 (.y(and2_3), .a(next), .b(row_divcnt_q0));
    vcl018_and2 u2 (.y(and2_5), .a(next), .b(and2_1));
    vcl018_xor2 u3 (.y(xor2_7), .a(row_divcnt_q0), .b(next));
    vcl018_dffr u4 (.q(row_divcnt_q0), .d(xor2_7), .rst(reset), .clk(clk));
    vcl018_xor2 u5 (.y(xor2_9), .a(row_divcnt_q1), .b(and2_3));
    vcl018_dffr u6 (.q(row_divcnt_q1), .d(xor2_9), .rst(reset), .clk(clk));
    vcl018_dffse u7 (.q(row_s0_0), .d(row_s0_3), .en(and2_5), .set(reset), .clk(clk));
    vcl018_dffre u8 (.q(row_s0_1), .d(row_s0_0), .en(and2_5), .rst(reset), .clk(clk));
    vcl018_dffre u9 (.q(row_s0_2), .d(row_s0_1), .en(and2_5), .rst(reset), .clk(clk));
    vcl018_dffre u10 (.q(row_s0_3), .d(row_s0_2), .en(and2_5), .rst(reset), .clk(clk));
    vcl018_and2 u11 (.y(and2_11), .a(and2_5), .b(row_s0_3));
    vcl018_dffse u12 (.q(col_s0_0), .d(col_s0_3), .en(next), .set(reset), .clk(clk));
    vcl018_dffre u13 (.q(col_s0_1), .d(col_s0_0), .en(next), .rst(reset), .clk(clk));
    vcl018_dffre u14 (.q(col_s0_2), .d(col_s0_1), .en(next), .rst(reset), .clk(clk));
    vcl018_dffre u15 (.q(col_s0_3), .d(col_s0_2), .en(next), .rst(reset), .clk(clk));
    vcl018_and2 u16 (.y(and2_13), .a(next), .b(col_s0_3));
endmodule
// generated by adgen from netlist `srag2d_BinaryCounters_4x4`
module srag2d_BinaryCounters_4x4 (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4,
    output wire po_5,
    output wire po_6,
    output wire po_7
);
    wire row_divcnt_q0;
    wire row_divcnt_q1;
    wire and2_1;
    wire and2_3;
    wire and2_5;
    wire xor2_7;
    wire xor2_9;
    wire row_s0_0;
    wire row_s0_1;
    wire row_s0_2;
    wire row_s0_3;
    wire and2_11;
    wire col_s0_0;
    wire col_s0_1;
    wire col_s0_2;
    wire col_s0_3;
    wire and2_13;
    assign po_0 = row_s0_0;
    assign po_1 = row_s0_1;
    assign po_2 = row_s0_2;
    assign po_3 = row_s0_3;
    assign po_4 = col_s0_0;
    assign po_5 = col_s0_1;
    assign po_6 = col_s0_2;
    assign po_7 = col_s0_3;
    vcl018_and2 u0 (.y(and2_1), .a(row_divcnt_q0), .b(row_divcnt_q1));
    vcl018_and2 u1 (.y(and2_3), .a(next), .b(row_divcnt_q0));
    vcl018_and2 u2 (.y(and2_5), .a(next), .b(and2_1));
    vcl018_xor2 u3 (.y(xor2_7), .a(row_divcnt_q0), .b(next));
    vcl018_dffr u4 (.q(row_divcnt_q0), .d(xor2_7), .rst(reset), .clk(clk));
    vcl018_xor2 u5 (.y(xor2_9), .a(row_divcnt_q1), .b(and2_3));
    vcl018_dffr u6 (.q(row_divcnt_q1), .d(xor2_9), .rst(reset), .clk(clk));
    vcl018_dffse u7 (.q(row_s0_0), .d(row_s0_3), .en(and2_5), .set(reset), .clk(clk));
    vcl018_dffre u8 (.q(row_s0_1), .d(row_s0_0), .en(and2_5), .rst(reset), .clk(clk));
    vcl018_dffre u9 (.q(row_s0_2), .d(row_s0_1), .en(and2_5), .rst(reset), .clk(clk));
    vcl018_dffre u10 (.q(row_s0_3), .d(row_s0_2), .en(and2_5), .rst(reset), .clk(clk));
    vcl018_and2 u11 (.y(and2_11), .a(and2_5), .b(row_s0_3));
    vcl018_dffse u12 (.q(col_s0_0), .d(col_s0_3), .en(next), .set(reset), .clk(clk));
    vcl018_dffre u13 (.q(col_s0_1), .d(col_s0_0), .en(next), .rst(reset), .clk(clk));
    vcl018_dffre u14 (.q(col_s0_2), .d(col_s0_1), .en(next), .rst(reset), .clk(clk));
    vcl018_dffre u15 (.q(col_s0_3), .d(col_s0_2), .en(next), .rst(reset), .clk(clk));
    vcl018_and2 u16 (.y(and2_13), .a(next), .b(col_s0_3));
endmodule
// generated by adgen from netlist `srag2d_RingCounters_4x4`
module srag2d_RingCounters_4x4 (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4,
    output wire po_5,
    output wire po_6,
    output wire po_7
);
    wire row_divcnt_r0;
    wire row_divcnt_r1;
    wire row_divcnt_r2;
    wire row_divcnt_r3;
    wire and2_1;
    wire row_s0_0;
    wire row_s0_1;
    wire row_s0_2;
    wire row_s0_3;
    wire and2_3;
    wire col_s0_0;
    wire col_s0_1;
    wire col_s0_2;
    wire col_s0_3;
    wire and2_5;
    assign po_0 = row_s0_0;
    assign po_1 = row_s0_1;
    assign po_2 = row_s0_2;
    assign po_3 = row_s0_3;
    assign po_4 = col_s0_0;
    assign po_5 = col_s0_1;
    assign po_6 = col_s0_2;
    assign po_7 = col_s0_3;
    vcl018_dffse u0 (.q(row_divcnt_r0), .d(row_divcnt_r3), .en(next), .set(reset), .clk(clk));
    vcl018_dffre u1 (.q(row_divcnt_r1), .d(row_divcnt_r0), .en(next), .rst(reset), .clk(clk));
    vcl018_dffre u2 (.q(row_divcnt_r2), .d(row_divcnt_r1), .en(next), .rst(reset), .clk(clk));
    vcl018_dffre u3 (.q(row_divcnt_r3), .d(row_divcnt_r2), .en(next), .rst(reset), .clk(clk));
    vcl018_and2 u4 (.y(and2_1), .a(next), .b(row_divcnt_r3));
    vcl018_dffse u5 (.q(row_s0_0), .d(row_s0_3), .en(and2_1), .set(reset), .clk(clk));
    vcl018_dffre u6 (.q(row_s0_1), .d(row_s0_0), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_dffre u7 (.q(row_s0_2), .d(row_s0_1), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_dffre u8 (.q(row_s0_3), .d(row_s0_2), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_and2 u9 (.y(and2_3), .a(and2_1), .b(row_s0_3));
    vcl018_dffse u10 (.q(col_s0_0), .d(col_s0_3), .en(next), .set(reset), .clk(clk));
    vcl018_dffre u11 (.q(col_s0_1), .d(col_s0_0), .en(next), .rst(reset), .clk(clk));
    vcl018_dffre u12 (.q(col_s0_2), .d(col_s0_1), .en(next), .rst(reset), .clk(clk));
    vcl018_dffre u13 (.q(col_s0_3), .d(col_s0_2), .en(next), .rst(reset), .clk(clk));
    vcl018_and2 u14 (.y(and2_5), .a(next), .b(col_s0_3));
endmodule
// generated by adgen from netlist `srag2d_InteractingFsms_4x4`
module srag2d_InteractingFsms_4x4 (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4,
    output wire po_5,
    output wire po_6,
    output wire po_7,
    output wire po_8
);
    wire row_divcnt_state_q0;
    wire row_divcnt_state_q1;
    wire inv_1;
    wire inv_3;
    wire and2_5;
    wire and2_7;
    wire or2_9;
    wire and2_11;
    wire and2_13;
    wire row_s0_0;
    wire row_s0_1;
    wire row_s0_2;
    wire row_s0_3;
    wire and2_15;
    wire col_s0_0;
    wire col_s0_1;
    wire col_s0_2;
    wire col_s0_3;
    wire and2_17;
    assign po_0 = and2_11;
    assign po_1 = row_s0_0;
    assign po_2 = row_s0_1;
    assign po_3 = row_s0_2;
    assign po_4 = row_s0_3;
    assign po_5 = col_s0_0;
    assign po_6 = col_s0_1;
    assign po_7 = col_s0_2;
    assign po_8 = col_s0_3;
    vcl018_inv u0 (.y(inv_1), .a(row_divcnt_state_q0));
    vcl018_inv u1 (.y(inv_3), .a(row_divcnt_state_q1));
    vcl018_dffre u2 (.q(row_divcnt_state_q0), .d(inv_1), .en(next), .rst(reset), .clk(clk));
    vcl018_and2 u3 (.y(and2_5), .a(row_divcnt_state_q0), .b(inv_3));
    vcl018_and2 u4 (.y(and2_7), .a(inv_1), .b(row_divcnt_state_q1));
    vcl018_or2 u5 (.y(or2_9), .a(and2_5), .b(and2_7));
    vcl018_dffre u6 (.q(row_divcnt_state_q1), .d(or2_9), .en(next), .rst(reset), .clk(clk));
    vcl018_and2 u7 (.y(and2_11), .a(row_divcnt_state_q0), .b(row_divcnt_state_q1));
    vcl018_and2 u8 (.y(and2_13), .a(next), .b(and2_11));
    vcl018_dffse u9 (.q(row_s0_0), .d(row_s0_3), .en(and2_13), .set(reset), .clk(clk));
    vcl018_dffre u10 (.q(row_s0_1), .d(row_s0_0), .en(and2_13), .rst(reset), .clk(clk));
    vcl018_dffre u11 (.q(row_s0_2), .d(row_s0_1), .en(and2_13), .rst(reset), .clk(clk));
    vcl018_dffre u12 (.q(row_s0_3), .d(row_s0_2), .en(and2_13), .rst(reset), .clk(clk));
    vcl018_and2 u13 (.y(and2_15), .a(and2_13), .b(row_s0_3));
    vcl018_dffse u14 (.q(col_s0_0), .d(col_s0_3), .en(next), .set(reset), .clk(clk));
    vcl018_dffre u15 (.q(col_s0_1), .d(col_s0_0), .en(next), .rst(reset), .clk(clk));
    vcl018_dffre u16 (.q(col_s0_2), .d(col_s0_1), .en(next), .rst(reset), .clk(clk));
    vcl018_dffre u17 (.q(col_s0_3), .d(col_s0_2), .en(next), .rst(reset), .clk(clk));
    vcl018_and2 u18 (.y(and2_17), .a(next), .b(col_s0_3));
endmodule
// generated by adgen from netlist `srag2d_chained_4x4`
module srag2d_chained_4x4 (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4,
    output wire po_5,
    output wire po_6,
    output wire po_7
);
    wire col_s0_0;
    wire col_s0_1;
    wire col_s0_2;
    wire col_s0_3;
    wire and2_1;
    wire row_s0_0;
    wire row_s0_1;
    wire row_s0_2;
    wire row_s0_3;
    wire and2_3;
    assign po_0 = row_s0_0;
    assign po_1 = row_s0_1;
    assign po_2 = row_s0_2;
    assign po_3 = row_s0_3;
    assign po_4 = col_s0_0;
    assign po_5 = col_s0_1;
    assign po_6 = col_s0_2;
    assign po_7 = col_s0_3;
    vcl018_dffse u0 (.q(col_s0_0), .d(col_s0_3), .en(next), .set(reset), .clk(clk));
    vcl018_dffre u1 (.q(col_s0_1), .d(col_s0_0), .en(next), .rst(reset), .clk(clk));
    vcl018_dffre u2 (.q(col_s0_2), .d(col_s0_1), .en(next), .rst(reset), .clk(clk));
    vcl018_dffre u3 (.q(col_s0_3), .d(col_s0_2), .en(next), .rst(reset), .clk(clk));
    vcl018_and2 u4 (.y(and2_1), .a(next), .b(col_s0_3));
    vcl018_dffse u5 (.q(row_s0_0), .d(row_s0_3), .en(and2_1), .set(reset), .clk(clk));
    vcl018_dffre u6 (.q(row_s0_1), .d(row_s0_0), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_dffre u7 (.q(row_s0_2), .d(row_s0_1), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_dffre u8 (.q(row_s0_3), .d(row_s0_2), .en(and2_1), .rst(reset), .clk(clk));
    vcl018_and2 u9 (.y(and2_3), .a(and2_1), .b(row_s0_3));
endmodule
// generated by adgen from netlist `srag2d_hard_4x4`
module srag2d_hard_4x4 (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4,
    output wire po_5,
    output wire po_6,
    output wire po_7,
    output wire po_8
);
    wire row_divcnt_q0;
    wire row_divcnt_q1;
    wire and2_1;
    wire and2_3;
    wire and2_5;
    wire xor2_7;
    wire xor2_9;
    wire row_s0_0;
    wire row_s0_1;
    wire row_s0_2;
    wire row_s0_3;
    wire and2_11;
    wire or2_13;
    wire and2_15;
    wire or2_17;
    wire or2_19;
    wire and2_21;
    wire or2_23;
    wire or2_25;
    wire inv_27;
    wire or2_29;
    wire or2_31;
    wire and2_33;
    wire col_s0_0;
    wire col_s0_1;
    wire col_s0_2;
    wire col_s0_3;
    wire and2_35;
    wire or2_37;
    wire and2_39;
    wire or2_41;
    wire or2_43;
    wire and2_45;
    wire or2_47;
    wire or2_49;
    wire inv_51;
    wire or2_53;
    wire or2_55;
    wire and2_57;
    wire or2_59;
    assign po_0 = row_s0_0;
    assign po_1 = row_s0_1;
    assign po_2 = row_s0_2;
    assign po_3 = row_s0_3;
    assign po_4 = col_s0_0;
    assign po_5 = col_s0_1;
    assign po_6 = col_s0_2;
    assign po_7 = col_s0_3;
    assign po_8 = or2_59;
    vcl018_and2 u0 (.y(and2_1), .a(row_divcnt_q0), .b(row_divcnt_q1));
    vcl018_and2 u1 (.y(and2_3), .a(next), .b(row_divcnt_q0));
    vcl018_and2 u2 (.y(and2_5), .a(next), .b(and2_1));
    vcl018_xor2 u3 (.y(xor2_7), .a(row_divcnt_q0), .b(next));
    vcl018_dffr u4 (.q(row_divcnt_q0), .d(xor2_7), .rst(reset), .clk(clk));
    vcl018_xor2 u5 (.y(xor2_9), .a(row_divcnt_q1), .b(and2_3));
    vcl018_dffr u6 (.q(row_divcnt_q1), .d(xor2_9), .rst(reset), .clk(clk));
    vcl018_and2 u7 (.y(and2_11), .a(row_s0_0), .b(row_s0_1));
    vcl018_or2 u8 (.y(or2_13), .a(row_s0_0), .b(row_s0_1));
    vcl018_and2 u9 (.y(and2_15), .a(or2_13), .b(row_s0_2));
    vcl018_or2 u10 (.y(or2_17), .a(and2_11), .b(and2_15));
    vcl018_or2 u11 (.y(or2_19), .a(or2_13), .b(row_s0_2));
    vcl018_and2 u12 (.y(and2_21), .a(or2_19), .b(row_s0_3));
    vcl018_or2 u13 (.y(or2_23), .a(or2_17), .b(and2_21));
    vcl018_or2 u14 (.y(or2_25), .a(or2_19), .b(row_s0_3));
    vcl018_inv u15 (.y(inv_27), .a(or2_25));
    vcl018_or2 u16 (.y(or2_29), .a(inv_27), .b(or2_23));
    vcl018_or2 u17 (.y(or2_31), .a(reset), .b(or2_29));
    vcl018_dffse u18 (.q(row_s0_0), .d(row_s0_3), .en(and2_5), .set(or2_31), .clk(clk));
    vcl018_dffre u19 (.q(row_s0_1), .d(row_s0_0), .en(and2_5), .rst(or2_31), .clk(clk));
    vcl018_dffre u20 (.q(row_s0_2), .d(row_s0_1), .en(and2_5), .rst(or2_31), .clk(clk));
    vcl018_dffre u21 (.q(row_s0_3), .d(row_s0_2), .en(and2_5), .rst(or2_31), .clk(clk));
    vcl018_and2 u22 (.y(and2_33), .a(and2_5), .b(row_s0_3));
    vcl018_and2 u23 (.y(and2_35), .a(col_s0_0), .b(col_s0_1));
    vcl018_or2 u24 (.y(or2_37), .a(col_s0_0), .b(col_s0_1));
    vcl018_and2 u25 (.y(and2_39), .a(or2_37), .b(col_s0_2));
    vcl018_or2 u26 (.y(or2_41), .a(and2_35), .b(and2_39));
    vcl018_or2 u27 (.y(or2_43), .a(or2_37), .b(col_s0_2));
    vcl018_and2 u28 (.y(and2_45), .a(or2_43), .b(col_s0_3));
    vcl018_or2 u29 (.y(or2_47), .a(or2_41), .b(and2_45));
    vcl018_or2 u30 (.y(or2_49), .a(or2_43), .b(col_s0_3));
    vcl018_inv u31 (.y(inv_51), .a(or2_49));
    vcl018_or2 u32 (.y(or2_53), .a(inv_51), .b(or2_47));
    vcl018_or2 u33 (.y(or2_55), .a(reset), .b(or2_53));
    vcl018_dffse u34 (.q(col_s0_0), .d(col_s0_3), .en(next), .set(or2_55), .clk(clk));
    vcl018_dffre u35 (.q(col_s0_1), .d(col_s0_0), .en(next), .rst(or2_55), .clk(clk));
    vcl018_dffre u36 (.q(col_s0_2), .d(col_s0_1), .en(next), .rst(or2_55), .clk(clk));
    vcl018_dffre u37 (.q(col_s0_3), .d(col_s0_2), .en(next), .rst(or2_55), .clk(clk));
    vcl018_and2 u38 (.y(and2_57), .a(next), .b(col_s0_3));
    vcl018_or2 u39 (.y(or2_59), .a(or2_29), .b(or2_53));
endmodule
// generated by adgen from netlist `srag2d_4x4`
module srag2d_4x4 (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4,
    output wire po_5,
    output wire po_6,
    output wire po_7
);
    wire row_divcnt_q0;
    wire and2_1;
    wire xor2_3;
    wire row_passcnt_q0;
    wire row_passcnt_q1;
    wire and2_5;
    wire and2_7;
    wire and2_9;
    wire xor2_11;
    wire xor2_13;
    wire row_s0_0;
    wire row_s0_1;
    wire row_s1_0;
    wire row_s1_1;
    wire mux2_15;
    wire mux2_17;
    wire or2_19;
    wire and2_21;
    wire col_passcnt_q0;
    wire col_passcnt_q1;
    wire and2_23;
    wire and2_25;
    wire and2_27;
    wire xor2_29;
    wire xor2_31;
    wire col_s0_0;
    wire col_s0_1;
    wire col_s1_0;
    wire col_s1_1;
    wire mux2_33;
    wire mux2_35;
    wire or2_37;
    wire and2_39;
    wire buf_41;
    wire buf_43;
    wire buf_45;
    wire buf_47;
    wire buf_49;
    wire buf_51;
    wire buf_53;
    assign po_0 = row_s0_0;
    assign po_1 = row_s0_1;
    assign po_2 = row_s1_0;
    assign po_3 = row_s1_1;
    assign po_4 = col_s0_0;
    assign po_5 = col_s0_1;
    assign po_6 = col_s1_0;
    assign po_7 = col_s1_1;
    vcl018_and2 u0 (.y(and2_1), .a(next), .b(row_divcnt_q0));
    vcl018_xor2 u1 (.y(xor2_3), .a(row_divcnt_q0), .b(next));
    vcl018_dffr u2 (.q(row_divcnt_q0), .d(xor2_3), .rst(buf_41), .clk(clk));
    vcl018_and2 u3 (.y(and2_5), .a(row_passcnt_q0), .b(row_passcnt_q1));
    vcl018_and2 u4 (.y(and2_7), .a(and2_1), .b(row_passcnt_q0));
    vcl018_and2 u5 (.y(and2_9), .a(and2_1), .b(and2_5));
    vcl018_xor2 u6 (.y(xor2_11), .a(row_passcnt_q0), .b(and2_1));
    vcl018_dffr u7 (.q(row_passcnt_q0), .d(xor2_11), .rst(buf_41), .clk(clk));
    vcl018_xor2 u8 (.y(xor2_13), .a(row_passcnt_q1), .b(and2_7));
    vcl018_dffr u9 (.q(row_passcnt_q1), .d(xor2_13), .rst(buf_43), .clk(clk));
    vcl018_mux2 u10 (.y(mux2_15), .d0(row_s0_1), .d1(row_s1_1), .sel(and2_9));
    vcl018_dffse u11 (.q(row_s0_0), .d(mux2_15), .en(and2_1), .set(buf_43), .clk(clk));
    vcl018_dffre u12 (.q(row_s0_1), .d(row_s0_0), .en(and2_1), .rst(buf_45), .clk(clk));
    vcl018_mux2 u13 (.y(mux2_17), .d0(row_s1_1), .d1(row_s0_1), .sel(and2_9));
    vcl018_dffre u14 (.q(row_s1_0), .d(mux2_17), .en(and2_1), .rst(buf_45), .clk(clk));
    vcl018_dffre u15 (.q(row_s1_1), .d(row_s1_0), .en(and2_1), .rst(buf_47), .clk(clk));
    vcl018_or2 u16 (.y(or2_19), .a(row_s1_0), .b(row_s1_1));
    vcl018_and2 u17 (.y(and2_21), .a(and2_9), .b(or2_19));
    vcl018_and2 u18 (.y(and2_23), .a(col_passcnt_q0), .b(col_passcnt_q1));
    vcl018_and2 u19 (.y(and2_25), .a(next), .b(col_passcnt_q0));
    vcl018_and2 u20 (.y(and2_27), .a(next), .b(and2_23));
    vcl018_xor2 u21 (.y(xor2_29), .a(col_passcnt_q0), .b(next));
    vcl018_dffr u22 (.q(col_passcnt_q0), .d(xor2_29), .rst(buf_47), .clk(clk));
    vcl018_xor2 u23 (.y(xor2_31), .a(col_passcnt_q1), .b(and2_25));
    vcl018_dffr u24 (.q(col_passcnt_q1), .d(xor2_31), .rst(buf_49), .clk(clk));
    vcl018_mux2 u25 (.y(mux2_33), .d0(col_s0_1), .d1(col_s1_1), .sel(and2_27));
    vcl018_dffse u26 (.q(col_s0_0), .d(mux2_33), .en(next), .set(buf_49), .clk(clk));
    vcl018_dffre u27 (.q(col_s0_1), .d(col_s0_0), .en(next), .rst(buf_51), .clk(clk));
    vcl018_mux2 u28 (.y(mux2_35), .d0(col_s1_1), .d1(col_s0_1), .sel(and2_27));
    vcl018_dffre u29 (.q(col_s1_0), .d(mux2_35), .en(next), .rst(buf_51), .clk(clk));
    vcl018_dffre u30 (.q(col_s1_1), .d(col_s1_0), .en(next), .rst(buf_53), .clk(clk));
    vcl018_or2 u31 (.y(or2_37), .a(col_s1_0), .b(col_s1_1));
    vcl018_and2 u32 (.y(and2_39), .a(and2_27), .b(or2_37));
    vcl018_buf u33 (.y(buf_41), .a(reset));
    vcl018_buf u34 (.y(buf_43), .a(reset));
    vcl018_buf u35 (.y(buf_45), .a(reset));
    vcl018_buf u36 (.y(buf_47), .a(reset));
    vcl018_buf u37 (.y(buf_49), .a(reset));
    vcl018_buf u38 (.y(buf_51), .a(reset));
    vcl018_buf u39 (.y(buf_53), .a(reset));
endmodule
// generated by adgen from netlist `srag2d_BinaryCounters_4x4`
module srag2d_BinaryCounters_4x4 (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4,
    output wire po_5,
    output wire po_6,
    output wire po_7
);
    wire row_divcnt_q0;
    wire and2_1;
    wire xor2_3;
    wire row_passcnt_q0;
    wire row_passcnt_q1;
    wire and2_5;
    wire and2_7;
    wire and2_9;
    wire xor2_11;
    wire xor2_13;
    wire row_s0_0;
    wire row_s0_1;
    wire row_s1_0;
    wire row_s1_1;
    wire mux2_15;
    wire mux2_17;
    wire or2_19;
    wire and2_21;
    wire col_passcnt_q0;
    wire col_passcnt_q1;
    wire and2_23;
    wire and2_25;
    wire and2_27;
    wire xor2_29;
    wire xor2_31;
    wire col_s0_0;
    wire col_s0_1;
    wire col_s1_0;
    wire col_s1_1;
    wire mux2_33;
    wire mux2_35;
    wire or2_37;
    wire and2_39;
    wire buf_41;
    wire buf_43;
    wire buf_45;
    wire buf_47;
    wire buf_49;
    wire buf_51;
    wire buf_53;
    assign po_0 = row_s0_0;
    assign po_1 = row_s0_1;
    assign po_2 = row_s1_0;
    assign po_3 = row_s1_1;
    assign po_4 = col_s0_0;
    assign po_5 = col_s0_1;
    assign po_6 = col_s1_0;
    assign po_7 = col_s1_1;
    vcl018_and2 u0 (.y(and2_1), .a(next), .b(row_divcnt_q0));
    vcl018_xor2 u1 (.y(xor2_3), .a(row_divcnt_q0), .b(next));
    vcl018_dffr u2 (.q(row_divcnt_q0), .d(xor2_3), .rst(buf_41), .clk(clk));
    vcl018_and2 u3 (.y(and2_5), .a(row_passcnt_q0), .b(row_passcnt_q1));
    vcl018_and2 u4 (.y(and2_7), .a(and2_1), .b(row_passcnt_q0));
    vcl018_and2 u5 (.y(and2_9), .a(and2_1), .b(and2_5));
    vcl018_xor2 u6 (.y(xor2_11), .a(row_passcnt_q0), .b(and2_1));
    vcl018_dffr u7 (.q(row_passcnt_q0), .d(xor2_11), .rst(buf_41), .clk(clk));
    vcl018_xor2 u8 (.y(xor2_13), .a(row_passcnt_q1), .b(and2_7));
    vcl018_dffr u9 (.q(row_passcnt_q1), .d(xor2_13), .rst(buf_43), .clk(clk));
    vcl018_mux2 u10 (.y(mux2_15), .d0(row_s0_1), .d1(row_s1_1), .sel(and2_9));
    vcl018_dffse u11 (.q(row_s0_0), .d(mux2_15), .en(and2_1), .set(buf_43), .clk(clk));
    vcl018_dffre u12 (.q(row_s0_1), .d(row_s0_0), .en(and2_1), .rst(buf_45), .clk(clk));
    vcl018_mux2 u13 (.y(mux2_17), .d0(row_s1_1), .d1(row_s0_1), .sel(and2_9));
    vcl018_dffre u14 (.q(row_s1_0), .d(mux2_17), .en(and2_1), .rst(buf_45), .clk(clk));
    vcl018_dffre u15 (.q(row_s1_1), .d(row_s1_0), .en(and2_1), .rst(buf_47), .clk(clk));
    vcl018_or2 u16 (.y(or2_19), .a(row_s1_0), .b(row_s1_1));
    vcl018_and2 u17 (.y(and2_21), .a(and2_9), .b(or2_19));
    vcl018_and2 u18 (.y(and2_23), .a(col_passcnt_q0), .b(col_passcnt_q1));
    vcl018_and2 u19 (.y(and2_25), .a(next), .b(col_passcnt_q0));
    vcl018_and2 u20 (.y(and2_27), .a(next), .b(and2_23));
    vcl018_xor2 u21 (.y(xor2_29), .a(col_passcnt_q0), .b(next));
    vcl018_dffr u22 (.q(col_passcnt_q0), .d(xor2_29), .rst(buf_47), .clk(clk));
    vcl018_xor2 u23 (.y(xor2_31), .a(col_passcnt_q1), .b(and2_25));
    vcl018_dffr u24 (.q(col_passcnt_q1), .d(xor2_31), .rst(buf_49), .clk(clk));
    vcl018_mux2 u25 (.y(mux2_33), .d0(col_s0_1), .d1(col_s1_1), .sel(and2_27));
    vcl018_dffse u26 (.q(col_s0_0), .d(mux2_33), .en(next), .set(buf_49), .clk(clk));
    vcl018_dffre u27 (.q(col_s0_1), .d(col_s0_0), .en(next), .rst(buf_51), .clk(clk));
    vcl018_mux2 u28 (.y(mux2_35), .d0(col_s1_1), .d1(col_s0_1), .sel(and2_27));
    vcl018_dffre u29 (.q(col_s1_0), .d(mux2_35), .en(next), .rst(buf_51), .clk(clk));
    vcl018_dffre u30 (.q(col_s1_1), .d(col_s1_0), .en(next), .rst(buf_53), .clk(clk));
    vcl018_or2 u31 (.y(or2_37), .a(col_s1_0), .b(col_s1_1));
    vcl018_and2 u32 (.y(and2_39), .a(and2_27), .b(or2_37));
    vcl018_buf u33 (.y(buf_41), .a(reset));
    vcl018_buf u34 (.y(buf_43), .a(reset));
    vcl018_buf u35 (.y(buf_45), .a(reset));
    vcl018_buf u36 (.y(buf_47), .a(reset));
    vcl018_buf u37 (.y(buf_49), .a(reset));
    vcl018_buf u38 (.y(buf_51), .a(reset));
    vcl018_buf u39 (.y(buf_53), .a(reset));
endmodule
// generated by adgen from netlist `srag2d_RingCounters_4x4`
module srag2d_RingCounters_4x4 (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4,
    output wire po_5,
    output wire po_6,
    output wire po_7
);
    wire row_divcnt_r0;
    wire row_divcnt_r1;
    wire and2_1;
    wire row_passcnt_r0;
    wire row_passcnt_r1;
    wire row_passcnt_r2;
    wire row_passcnt_r3;
    wire and2_3;
    wire row_s0_0;
    wire row_s0_1;
    wire row_s1_0;
    wire row_s1_1;
    wire mux2_5;
    wire mux2_7;
    wire or2_9;
    wire and2_11;
    wire col_passcnt_r0;
    wire col_passcnt_r1;
    wire col_passcnt_r2;
    wire col_passcnt_r3;
    wire and2_13;
    wire col_s0_0;
    wire col_s0_1;
    wire col_s1_0;
    wire col_s1_1;
    wire mux2_15;
    wire mux2_17;
    wire or2_19;
    wire and2_21;
    wire buf_23;
    wire buf_25;
    wire buf_27;
    wire buf_29;
    wire buf_31;
    wire buf_33;
    wire buf_35;
    wire buf_37;
    wire buf_39;
    assign po_0 = row_s0_0;
    assign po_1 = row_s0_1;
    assign po_2 = row_s1_0;
    assign po_3 = row_s1_1;
    assign po_4 = col_s0_0;
    assign po_5 = col_s0_1;
    assign po_6 = col_s1_0;
    assign po_7 = col_s1_1;
    vcl018_dffse u0 (.q(row_divcnt_r0), .d(row_divcnt_r1), .en(next), .set(buf_23), .clk(clk));
    vcl018_dffre u1 (.q(row_divcnt_r1), .d(row_divcnt_r0), .en(next), .rst(buf_23), .clk(clk));
    vcl018_and2 u2 (.y(and2_1), .a(next), .b(row_divcnt_r1));
    vcl018_dffse u3 (.q(row_passcnt_r0), .d(row_passcnt_r3), .en(and2_1), .set(buf_25), .clk(clk));
    vcl018_dffre u4 (.q(row_passcnt_r1), .d(row_passcnt_r0), .en(and2_1), .rst(buf_25), .clk(clk));
    vcl018_dffre u5 (.q(row_passcnt_r2), .d(row_passcnt_r1), .en(and2_1), .rst(buf_27), .clk(clk));
    vcl018_dffre u6 (.q(row_passcnt_r3), .d(row_passcnt_r2), .en(and2_1), .rst(buf_27), .clk(clk));
    vcl018_and2 u7 (.y(and2_3), .a(and2_1), .b(row_passcnt_r3));
    vcl018_mux2 u8 (.y(mux2_5), .d0(row_s0_1), .d1(row_s1_1), .sel(and2_3));
    vcl018_dffse u9 (.q(row_s0_0), .d(mux2_5), .en(and2_1), .set(buf_29), .clk(clk));
    vcl018_dffre u10 (.q(row_s0_1), .d(row_s0_0), .en(and2_1), .rst(buf_29), .clk(clk));
    vcl018_mux2 u11 (.y(mux2_7), .d0(row_s1_1), .d1(row_s0_1), .sel(and2_3));
    vcl018_dffre u12 (.q(row_s1_0), .d(mux2_7), .en(and2_1), .rst(buf_31), .clk(clk));
    vcl018_dffre u13 (.q(row_s1_1), .d(row_s1_0), .en(and2_1), .rst(buf_31), .clk(clk));
    vcl018_or2 u14 (.y(or2_9), .a(row_s1_0), .b(row_s1_1));
    vcl018_and2 u15 (.y(and2_11), .a(and2_3), .b(or2_9));
    vcl018_dffse u16 (.q(col_passcnt_r0), .d(col_passcnt_r3), .en(next), .set(buf_33), .clk(clk));
    vcl018_dffre u17 (.q(col_passcnt_r1), .d(col_passcnt_r0), .en(next), .rst(buf_33), .clk(clk));
    vcl018_dffre u18 (.q(col_passcnt_r2), .d(col_passcnt_r1), .en(next), .rst(buf_35), .clk(clk));
    vcl018_dffre u19 (.q(col_passcnt_r3), .d(col_passcnt_r2), .en(next), .rst(buf_35), .clk(clk));
    vcl018_and2 u20 (.y(and2_13), .a(next), .b(col_passcnt_r3));
    vcl018_mux2 u21 (.y(mux2_15), .d0(col_s0_1), .d1(col_s1_1), .sel(and2_13));
    vcl018_dffse u22 (.q(col_s0_0), .d(mux2_15), .en(next), .set(buf_37), .clk(clk));
    vcl018_dffre u23 (.q(col_s0_1), .d(col_s0_0), .en(next), .rst(buf_37), .clk(clk));
    vcl018_mux2 u24 (.y(mux2_17), .d0(col_s1_1), .d1(col_s0_1), .sel(and2_13));
    vcl018_dffre u25 (.q(col_s1_0), .d(mux2_17), .en(next), .rst(buf_39), .clk(clk));
    vcl018_dffre u26 (.q(col_s1_1), .d(col_s1_0), .en(next), .rst(buf_39), .clk(clk));
    vcl018_or2 u27 (.y(or2_19), .a(col_s1_0), .b(col_s1_1));
    vcl018_and2 u28 (.y(and2_21), .a(and2_13), .b(or2_19));
    vcl018_buf u29 (.y(buf_23), .a(reset));
    vcl018_buf u30 (.y(buf_25), .a(reset));
    vcl018_buf u31 (.y(buf_27), .a(reset));
    vcl018_buf u32 (.y(buf_29), .a(reset));
    vcl018_buf u33 (.y(buf_31), .a(reset));
    vcl018_buf u34 (.y(buf_33), .a(reset));
    vcl018_buf u35 (.y(buf_35), .a(reset));
    vcl018_buf u36 (.y(buf_37), .a(reset));
    vcl018_buf u37 (.y(buf_39), .a(reset));
endmodule
// generated by adgen from netlist `srag2d_InteractingFsms_4x4`
module srag2d_InteractingFsms_4x4 (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4,
    output wire po_5,
    output wire po_6,
    output wire po_7,
    output wire po_8,
    output wire po_9,
    output wire po_10
);
    wire row_divcnt_state_q0;
    wire inv_1;
    wire and2_3;
    wire row_passcnt_state_q0;
    wire row_passcnt_state_q1;
    wire inv_5;
    wire inv_7;
    wire and2_9;
    wire and2_11;
    wire or2_13;
    wire and2_15;
    wire and2_17;
    wire row_s0_0;
    wire row_s0_1;
    wire row_s1_0;
    wire row_s1_1;
    wire mux2_19;
    wire mux2_21;
    wire or2_23;
    wire and2_25;
    wire col_passcnt_state_q0;
    wire col_passcnt_state_q1;
    wire inv_27;
    wire inv_29;
    wire and2_31;
    wire and2_33;
    wire or2_35;
    wire and2_37;
    wire and2_39;
    wire col_s0_0;
    wire col_s0_1;
    wire col_s1_0;
    wire col_s1_1;
    wire mux2_41;
    wire mux2_43;
    wire or2_45;
    wire and2_47;
    wire buf_49;
    wire buf_51;
    wire buf_53;
    wire buf_55;
    wire buf_57;
    wire buf_59;
    wire buf_61;
    assign po_0 = row_divcnt_state_q0;
    assign po_1 = and2_15;
    assign po_2 = and2_37;
    assign po_3 = row_s0_0;
    assign po_4 = row_s0_1;
    assign po_5 = row_s1_0;
    assign po_6 = row_s1_1;
    assign po_7 = col_s0_0;
    assign po_8 = col_s0_1;
    assign po_9 = col_s1_0;
    assign po_10 = col_s1_1;
    vcl018_inv u0 (.y(inv_1), .a(row_divcnt_state_q0));
    vcl018_dffre u1 (.q(row_divcnt_state_q0), .d(inv_1), .en(next), .rst(buf_49), .clk(clk));
    vcl018_and2 u2 (.y(and2_3), .a(next), .b(row_divcnt_state_q0));
    vcl018_inv u3 (.y(inv_5), .a(row_passcnt_state_q0));
    vcl018_inv u4 (.y(inv_7), .a(row_passcnt_state_q1));
    vcl018_dffre u5 (.q(row_passcnt_state_q0), .d(inv_5), .en(and2_3), .rst(buf_49), .clk(clk));
    vcl018_and2 u6 (.y(and2_9), .a(row_passcnt_state_q0), .b(inv_7));
    vcl018_and2 u7 (.y(and2_11), .a(inv_5), .b(row_passcnt_state_q1));
    vcl018_or2 u8 (.y(or2_13), .a(and2_9), .b(and2_11));
    vcl018_dffre u9 (.q(row_passcnt_state_q1), .d(or2_13), .en(and2_3), .rst(buf_51), .clk(clk));
    vcl018_and2 u10 (.y(and2_15), .a(row_passcnt_state_q0), .b(row_passcnt_state_q1));
    vcl018_and2 u11 (.y(and2_17), .a(and2_3), .b(and2_15));
    vcl018_mux2 u12 (.y(mux2_19), .d0(row_s0_1), .d1(row_s1_1), .sel(and2_17));
    vcl018_dffse u13 (.q(row_s0_0), .d(mux2_19), .en(and2_3), .set(buf_51), .clk(clk));
    vcl018_dffre u14 (.q(row_s0_1), .d(row_s0_0), .en(and2_3), .rst(buf_53), .clk(clk));
    vcl018_mux2 u15 (.y(mux2_21), .d0(row_s1_1), .d1(row_s0_1), .sel(and2_17));
    vcl018_dffre u16 (.q(row_s1_0), .d(mux2_21), .en(and2_3), .rst(buf_53), .clk(clk));
    vcl018_dffre u17 (.q(row_s1_1), .d(row_s1_0), .en(and2_3), .rst(buf_55), .clk(clk));
    vcl018_or2 u18 (.y(or2_23), .a(row_s1_0), .b(row_s1_1));
    vcl018_and2 u19 (.y(and2_25), .a(and2_17), .b(or2_23));
    vcl018_inv u20 (.y(inv_27), .a(col_passcnt_state_q0));
    vcl018_inv u21 (.y(inv_29), .a(col_passcnt_state_q1));
    vcl018_dffre u22 (.q(col_passcnt_state_q0), .d(inv_27), .en(next), .rst(buf_55), .clk(clk));
    vcl018_and2 u23 (.y(and2_31), .a(col_passcnt_state_q0), .b(inv_29));
    vcl018_and2 u24 (.y(and2_33), .a(inv_27), .b(col_passcnt_state_q1));
    vcl018_or2 u25 (.y(or2_35), .a(and2_31), .b(and2_33));
    vcl018_dffre u26 (.q(col_passcnt_state_q1), .d(or2_35), .en(next), .rst(buf_57), .clk(clk));
    vcl018_and2 u27 (.y(and2_37), .a(col_passcnt_state_q0), .b(col_passcnt_state_q1));
    vcl018_and2 u28 (.y(and2_39), .a(next), .b(and2_37));
    vcl018_mux2 u29 (.y(mux2_41), .d0(col_s0_1), .d1(col_s1_1), .sel(and2_39));
    vcl018_dffse u30 (.q(col_s0_0), .d(mux2_41), .en(next), .set(buf_57), .clk(clk));
    vcl018_dffre u31 (.q(col_s0_1), .d(col_s0_0), .en(next), .rst(buf_59), .clk(clk));
    vcl018_mux2 u32 (.y(mux2_43), .d0(col_s1_1), .d1(col_s0_1), .sel(and2_39));
    vcl018_dffre u33 (.q(col_s1_0), .d(mux2_43), .en(next), .rst(buf_59), .clk(clk));
    vcl018_dffre u34 (.q(col_s1_1), .d(col_s1_0), .en(next), .rst(buf_61), .clk(clk));
    vcl018_or2 u35 (.y(or2_45), .a(col_s1_0), .b(col_s1_1));
    vcl018_and2 u36 (.y(and2_47), .a(and2_39), .b(or2_45));
    vcl018_buf u37 (.y(buf_49), .a(reset));
    vcl018_buf u38 (.y(buf_51), .a(reset));
    vcl018_buf u39 (.y(buf_53), .a(reset));
    vcl018_buf u40 (.y(buf_55), .a(reset));
    vcl018_buf u41 (.y(buf_57), .a(reset));
    vcl018_buf u42 (.y(buf_59), .a(reset));
    vcl018_buf u43 (.y(buf_61), .a(reset));
endmodule
// generated by adgen from netlist `srag2d_hard_4x4`
module srag2d_hard_4x4 (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4,
    output wire po_5,
    output wire po_6,
    output wire po_7,
    output wire po_8
);
    wire row_divcnt_q0;
    wire and2_1;
    wire xor2_3;
    wire row_passcnt_q0;
    wire row_passcnt_q1;
    wire and2_5;
    wire and2_7;
    wire and2_9;
    wire xor2_11;
    wire xor2_13;
    wire row_s0_0;
    wire row_s0_1;
    wire row_s1_0;
    wire row_s1_1;
    wire and2_15;
    wire or2_17;
    wire and2_19;
    wire or2_21;
    wire or2_23;
    wire and2_25;
    wire or2_27;
    wire or2_29;
    wire inv_31;
    wire or2_33;
    wire or2_35;
    wire mux2_37;
    wire mux2_39;
    wire or2_41;
    wire and2_43;
    wire col_passcnt_q0;
    wire col_passcnt_q1;
    wire and2_45;
    wire and2_47;
    wire and2_49;
    wire xor2_51;
    wire xor2_53;
    wire col_s0_0;
    wire col_s0_1;
    wire col_s1_0;
    wire col_s1_1;
    wire and2_55;
    wire or2_57;
    wire and2_59;
    wire or2_61;
    wire or2_63;
    wire and2_65;
    wire or2_67;
    wire or2_69;
    wire inv_71;
    wire or2_73;
    wire or2_75;
    wire mux2_77;
    wire mux2_79;
    wire or2_81;
    wire and2_83;
    wire or2_85;
    assign po_0 = row_s0_0;
    assign po_1 = row_s0_1;
    assign po_2 = row_s1_0;
    assign po_3 = row_s1_1;
    assign po_4 = col_s0_0;
    assign po_5 = col_s0_1;
    assign po_6 = col_s1_0;
    assign po_7 = col_s1_1;
    assign po_8 = or2_85;
    vcl018_and2 u0 (.y(and2_1), .a(next), .b(row_divcnt_q0));
    vcl018_xor2 u1 (.y(xor2_3), .a(row_divcnt_q0), .b(next));
    vcl018_dffr u2 (.q(row_divcnt_q0), .d(xor2_3), .rst(reset), .clk(clk));
    vcl018_and2 u3 (.y(and2_5), .a(row_passcnt_q0), .b(row_passcnt_q1));
    vcl018_and2 u4 (.y(and2_7), .a(and2_1), .b(row_passcnt_q0));
    vcl018_and2 u5 (.y(and2_9), .a(and2_1), .b(and2_5));
    vcl018_xor2 u6 (.y(xor2_11), .a(row_passcnt_q0), .b(and2_1));
    vcl018_dffr u7 (.q(row_passcnt_q0), .d(xor2_11), .rst(reset), .clk(clk));
    vcl018_xor2 u8 (.y(xor2_13), .a(row_passcnt_q1), .b(and2_7));
    vcl018_dffr u9 (.q(row_passcnt_q1), .d(xor2_13), .rst(reset), .clk(clk));
    vcl018_and2 u10 (.y(and2_15), .a(row_s0_0), .b(row_s0_1));
    vcl018_or2 u11 (.y(or2_17), .a(row_s0_0), .b(row_s0_1));
    vcl018_and2 u12 (.y(and2_19), .a(or2_17), .b(row_s1_0));
    vcl018_or2 u13 (.y(or2_21), .a(and2_15), .b(and2_19));
    vcl018_or2 u14 (.y(or2_23), .a(or2_17), .b(row_s1_0));
    vcl018_and2 u15 (.y(and2_25), .a(or2_23), .b(row_s1_1));
    vcl018_or2 u16 (.y(or2_27), .a(or2_21), .b(and2_25));
    vcl018_or2 u17 (.y(or2_29), .a(or2_23), .b(row_s1_1));
    vcl018_inv u18 (.y(inv_31), .a(or2_29));
    vcl018_or2 u19 (.y(or2_33), .a(inv_31), .b(or2_27));
    vcl018_or2 u20 (.y(or2_35), .a(reset), .b(or2_33));
    vcl018_mux2 u21 (.y(mux2_37), .d0(row_s0_1), .d1(row_s1_1), .sel(and2_9));
    vcl018_dffse u22 (.q(row_s0_0), .d(mux2_37), .en(and2_1), .set(or2_35), .clk(clk));
    vcl018_dffre u23 (.q(row_s0_1), .d(row_s0_0), .en(and2_1), .rst(or2_35), .clk(clk));
    vcl018_mux2 u24 (.y(mux2_39), .d0(row_s1_1), .d1(row_s0_1), .sel(and2_9));
    vcl018_dffre u25 (.q(row_s1_0), .d(mux2_39), .en(and2_1), .rst(or2_35), .clk(clk));
    vcl018_dffre u26 (.q(row_s1_1), .d(row_s1_0), .en(and2_1), .rst(or2_35), .clk(clk));
    vcl018_or2 u27 (.y(or2_41), .a(row_s1_0), .b(row_s1_1));
    vcl018_and2 u28 (.y(and2_43), .a(and2_9), .b(or2_41));
    vcl018_and2 u29 (.y(and2_45), .a(col_passcnt_q0), .b(col_passcnt_q1));
    vcl018_and2 u30 (.y(and2_47), .a(next), .b(col_passcnt_q0));
    vcl018_and2 u31 (.y(and2_49), .a(next), .b(and2_45));
    vcl018_xor2 u32 (.y(xor2_51), .a(col_passcnt_q0), .b(next));
    vcl018_dffr u33 (.q(col_passcnt_q0), .d(xor2_51), .rst(reset), .clk(clk));
    vcl018_xor2 u34 (.y(xor2_53), .a(col_passcnt_q1), .b(and2_47));
    vcl018_dffr u35 (.q(col_passcnt_q1), .d(xor2_53), .rst(reset), .clk(clk));
    vcl018_and2 u36 (.y(and2_55), .a(col_s0_0), .b(col_s0_1));
    vcl018_or2 u37 (.y(or2_57), .a(col_s0_0), .b(col_s0_1));
    vcl018_and2 u38 (.y(and2_59), .a(or2_57), .b(col_s1_0));
    vcl018_or2 u39 (.y(or2_61), .a(and2_55), .b(and2_59));
    vcl018_or2 u40 (.y(or2_63), .a(or2_57), .b(col_s1_0));
    vcl018_and2 u41 (.y(and2_65), .a(or2_63), .b(col_s1_1));
    vcl018_or2 u42 (.y(or2_67), .a(or2_61), .b(and2_65));
    vcl018_or2 u43 (.y(or2_69), .a(or2_63), .b(col_s1_1));
    vcl018_inv u44 (.y(inv_71), .a(or2_69));
    vcl018_or2 u45 (.y(or2_73), .a(inv_71), .b(or2_67));
    vcl018_or2 u46 (.y(or2_75), .a(reset), .b(or2_73));
    vcl018_mux2 u47 (.y(mux2_77), .d0(col_s0_1), .d1(col_s1_1), .sel(and2_49));
    vcl018_dffse u48 (.q(col_s0_0), .d(mux2_77), .en(next), .set(or2_75), .clk(clk));
    vcl018_dffre u49 (.q(col_s0_1), .d(col_s0_0), .en(next), .rst(or2_75), .clk(clk));
    vcl018_mux2 u50 (.y(mux2_79), .d0(col_s1_1), .d1(col_s0_1), .sel(and2_49));
    vcl018_dffre u51 (.q(col_s1_0), .d(mux2_79), .en(next), .rst(or2_75), .clk(clk));
    vcl018_dffre u52 (.q(col_s1_1), .d(col_s1_0), .en(next), .rst(or2_75), .clk(clk));
    vcl018_or2 u53 (.y(or2_81), .a(col_s1_0), .b(col_s1_1));
    vcl018_and2 u54 (.y(and2_83), .a(and2_49), .b(or2_81));
    vcl018_or2 u55 (.y(or2_85), .a(or2_33), .b(or2_73));
endmodule
// generated by adgen from netlist `srag_shared_4ff`
module srag_shared_4ff (
    input wire clk,
    input wire reset,
    input wire next,
    input wire mode,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3
);
    wire inv_1;
    wire and2_3;
    wire and2_5;
    wire a_divcnt_q0;
    wire a_divcnt_q1;
    wire and2_7;
    wire and2_9;
    wire and2_11;
    wire xor2_13;
    wire xor2_15;
    wire mux2_17;
    wire s0_0;
    wire s0_1;
    wire s0_2;
    wire s0_3;
    assign po_0 = s0_0;
    assign po_1 = s0_1;
    assign po_2 = s0_2;
    assign po_3 = s0_3;
    vcl018_inv u0 (.y(inv_1), .a(mode));
    vcl018_and2 u1 (.y(and2_3), .a(next), .b(inv_1));
    vcl018_and2 u2 (.y(and2_5), .a(next), .b(mode));
    vcl018_and2 u3 (.y(and2_7), .a(a_divcnt_q0), .b(a_divcnt_q1));
    vcl018_and2 u4 (.y(and2_9), .a(and2_3), .b(a_divcnt_q0));
    vcl018_and2 u5 (.y(and2_11), .a(and2_3), .b(and2_7));
    vcl018_xor2 u6 (.y(xor2_13), .a(a_divcnt_q0), .b(and2_3));
    vcl018_dffr u7 (.q(a_divcnt_q0), .d(xor2_13), .rst(reset), .clk(clk));
    vcl018_xor2 u8 (.y(xor2_15), .a(a_divcnt_q1), .b(and2_9));
    vcl018_dffr u9 (.q(a_divcnt_q1), .d(xor2_15), .rst(reset), .clk(clk));
    vcl018_mux2 u10 (.y(mux2_17), .d0(and2_11), .d1(and2_5), .sel(mode));
    vcl018_dffse u11 (.q(s0_0), .d(s0_3), .en(mux2_17), .set(reset), .clk(clk));
    vcl018_dffre u12 (.q(s0_1), .d(s0_0), .en(mux2_17), .rst(reset), .clk(clk));
    vcl018_dffre u13 (.q(s0_2), .d(s0_1), .en(mux2_17), .rst(reset), .clk(clk));
    vcl018_dffre u14 (.q(s0_3), .d(s0_2), .en(mux2_17), .rst(reset), .clk(clk));
endmodule
// generated by adgen from netlist `srag_shared_4ff`
module srag_shared_4ff (
    input wire clk,
    input wire reset,
    input wire next,
    input wire mode,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3
);
    wire inv_1;
    wire and2_3;
    wire and2_5;
    wire b_divcnt_q0;
    wire b_divcnt_q1;
    wire and2_7;
    wire and2_9;
    wire and2_11;
    wire xor2_13;
    wire xor2_15;
    wire mux2_17;
    wire s0_0;
    wire s0_1;
    wire s0_2;
    wire s0_3;
    assign po_0 = s0_0;
    assign po_1 = s0_1;
    assign po_2 = s0_2;
    assign po_3 = s0_3;
    vcl018_inv u0 (.y(inv_1), .a(mode));
    vcl018_and2 u1 (.y(and2_3), .a(next), .b(inv_1));
    vcl018_and2 u2 (.y(and2_5), .a(next), .b(mode));
    vcl018_and2 u3 (.y(and2_7), .a(b_divcnt_q0), .b(b_divcnt_q1));
    vcl018_and2 u4 (.y(and2_9), .a(and2_5), .b(b_divcnt_q0));
    vcl018_and2 u5 (.y(and2_11), .a(and2_5), .b(and2_7));
    vcl018_xor2 u6 (.y(xor2_13), .a(b_divcnt_q0), .b(and2_5));
    vcl018_dffr u7 (.q(b_divcnt_q0), .d(xor2_13), .rst(reset), .clk(clk));
    vcl018_xor2 u8 (.y(xor2_15), .a(b_divcnt_q1), .b(and2_9));
    vcl018_dffr u9 (.q(b_divcnt_q1), .d(xor2_15), .rst(reset), .clk(clk));
    vcl018_mux2 u10 (.y(mux2_17), .d0(and2_3), .d1(and2_11), .sel(mode));
    vcl018_dffse u11 (.q(s0_0), .d(s0_3), .en(mux2_17), .set(reset), .clk(clk));
    vcl018_dffre u12 (.q(s0_1), .d(s0_0), .en(mux2_17), .rst(reset), .clk(clk));
    vcl018_dffre u13 (.q(s0_2), .d(s0_1), .en(mux2_17), .rst(reset), .clk(clk));
    vcl018_dffre u14 (.q(s0_3), .d(s0_2), .en(mux2_17), .rst(reset), .clk(clk));
endmodule
// generated by adgen from netlist `mcsrag_8ff`
module mcsrag_8ff (
    input wire clk,
    input wire reset,
    input wire next,
    output wire po_0,
    output wire po_1,
    output wire po_2,
    output wire po_3,
    output wire po_4,
    output wire po_5,
    output wire po_6,
    output wire po_7
);
    wire s0_0;
    wire s0_1;
    wire s0_2;
    wire s0_3;
    wire s0_4;
    wire s0_5;
    wire s0_6;
    wire s0_7;
    wire divq0;
    wire divq1;
    wire or4_1;
    wire or3_3;
    wire or2_5;
    wire xnor2_7;
    wire xnor2_9;
    wire and2_11;
    wire and2_13;
    wire inv_15;
    wire and2_17;
    wire and2_19;
    wire xor2_21;
    wire and2_23;
    wire xor2_25;
    wire and2_27;
    wire tielo_29;
    assign po_0 = s0_3;
    assign po_1 = s0_1;
    assign po_2 = s0_7;
    assign po_3 = s0_4;
    assign po_4 = s0_2;
    assign po_5 = s0_0;
    assign po_6 = s0_6;
    assign po_7 = s0_5;
    vcl018_or4 u0 (.y(or4_1), .a(s0_1), .b(s0_2), .c(s0_3), .d(s0_4));
    vcl018_or3 u1 (.y(or3_3), .a(s0_5), .b(s0_6), .c(s0_7));
    vcl018_or2 u2 (.y(or2_5), .a(or4_1), .b(or3_3));
    vcl018_xnor2 u3 (.y(xnor2_7), .a(divq0), .b(or2_5));
    vcl018_xnor2 u4 (.y(xnor2_9), .a(divq1), .b(s0_0));
    vcl018_and2 u5 (.y(and2_11), .a(xnor2_7), .b(xnor2_9));
    vcl018_and2 u6 (.y(and2_13), .a(next), .b(and2_11));
    vcl018_inv u7 (.y(inv_15), .a(and2_13));
    vcl018_and2 u8 (.y(and2_17), .a(divq1), .b(divq0));
    vcl018_and2 u9 (.y(and2_19), .a(next), .b(divq0));
    vcl018_xor2 u10 (.y(xor2_21), .a(divq0), .b(next));
    vcl018_and2 u11 (.y(and2_23), .a(inv_15), .b(xor2_21));
    vcl018_dffr u12 (.q(divq0), .d(and2_23), .rst(reset), .clk(clk));
    vcl018_xor2 u13 (.y(xor2_25), .a(divq1), .b(and2_19));
    vcl018_and2 u14 (.y(and2_27), .a(inv_15), .b(xor2_25));
    vcl018_dffr u15 (.q(divq1), .d(and2_27), .rst(reset), .clk(clk));
    vcl018_tielo u16 (.y(tielo_29));
    vcl018_dffse u17 (.q(s0_0), .d(s0_7), .en(and2_13), .set(reset), .clk(clk));
    vcl018_dffre u18 (.q(s0_1), .d(s0_0), .en(and2_13), .rst(reset), .clk(clk));
    vcl018_dffre u19 (.q(s0_2), .d(s0_1), .en(and2_13), .rst(reset), .clk(clk));
    vcl018_dffre u20 (.q(s0_3), .d(s0_2), .en(and2_13), .rst(reset), .clk(clk));
    vcl018_dffre u21 (.q(s0_4), .d(s0_3), .en(and2_13), .rst(reset), .clk(clk));
    vcl018_dffre u22 (.q(s0_5), .d(s0_4), .en(and2_13), .rst(reset), .clk(clk));
    vcl018_dffre u23 (.q(s0_6), .d(s0_5), .en(and2_13), .rst(reset), .clk(clk));
    vcl018_dffre u24 (.q(s0_7), .d(s0_6), .en(and2_13), .rst(reset), .clk(clk));
endmodule
