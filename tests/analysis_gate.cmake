# Runs the static-analysis gate over a source tree, then schema-checks the
# report it wrote. Either step exiting non-zero fails the test.
#
#   cmake -DANALYZE=<radiocast_analyze> -DINSPECT=<radiocast_inspect>
#         -DROOT=<source dir> -DREPORT=<report.json> -P analysis_gate.cmake
execute_process(COMMAND ${ANALYZE} --root ${ROOT} --json ${REPORT}
                RESULT_VARIABLE analyze_rc)
if(NOT analyze_rc EQUAL 0)
  message(FATAL_ERROR "radiocast_analyze exited ${analyze_rc}")
endif()
execute_process(COMMAND ${INSPECT} validate ${REPORT}
                RESULT_VARIABLE validate_rc)
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR "radiocast_inspect validate exited ${validate_rc}")
endif()
